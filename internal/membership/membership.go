// Package membership implements deterministic dynamic membership, which
// topology.Tree.WithMembership lays over a run's tree for both engines:
// seeded churn plans (permanent join-at-round and leave-at-round events,
// distinct from crash/restart faults), a replayable ChurnTrace text format,
// and a cloud-driven re-tiering step that re-assigns workers to edges by
// deterministic clustering of their label distributions.
//
// The central object is the Schedule: because every membership decision is a
// pure function of (plan, re-tier cadence, topology, shard statistics), each
// node — cloud, edge, or worker, in-process or in its own OS process —
// precomputes the identical full membership trajectory before the run
// starts. Control messages (ADMIT/RETIRE/REASSIGN) only synchronize runtime
// transitions; they never carry decisions. That is what makes churn runs
// bit-identical across reruns, worker-pool sizes, and transports.
package membership

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// Action is the kind of a churn event.
type Action int

const (
	// ActionJoin schedules a worker's first training round: a worker with a
	// join at round r sits out rounds 1..r-1 and trains from round r on. A
	// join at round 1 marks an initial member and is a no-op.
	ActionJoin Action = iota
	// ActionLeave schedules a worker's last training round: it participates
	// through round r and is permanently gone from round r+1 — unlike a
	// crash/restart fault, it never comes back.
	ActionLeave
)

// String renders the action as it appears in a ChurnTrace.
func (a Action) String() string {
	switch a {
	case ActionJoin:
		return "join"
	case ActionLeave:
		return "leave"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Event is one planned membership change, pinned to an edge round.
type Event struct {
	// Round is the edge round (1-based, in units of τ worker iterations) the
	// event takes effect at, per the Action semantics above.
	Round int
	// Action is join or leave.
	Action Action
	// Worker is the affected training leaf's transport ID: the tree's own
	// name for it (topology.Tree.ID), resolved when the plan meets a tree.
	Worker string
}

// Plan is a set of churn events. The zero value is the empty plan (no
// churn). Plans are value types; Events must not be mutated after a
// Schedule is built from them.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan schedules no events.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// Clone deep-copies the plan.
func (p Plan) Clone() Plan {
	return Plan{Events: append([]Event(nil), p.Events...)}
}

// normalized returns the events sorted by (Round, Action, Worker) — the
// canonical order used for signatures and trace output. IDs compare with
// their digit runs padded, so a tree's leaves sort in leaf order
// ("worker-2" before "worker-10", "worker-0-2" before "worker-1-0"): the
// order the signature, a checkpoint fingerprint token, has always used.
func (p Plan) normalized() []Event {
	ev := append([]Event(nil), p.Events...)
	sort.Slice(ev, func(i, j int) bool {
		if ev[i].Round != ev[j].Round {
			return ev[i].Round < ev[j].Round
		}
		if ev[i].Action != ev[j].Action {
			return ev[i].Action < ev[j].Action
		}
		if ki, kj := idKey(ev[i].Worker), idKey(ev[j].Worker); ki != kj {
			return ki < kj
		}
		return ev[i].Worker < ev[j].Worker
	})
	return ev
}

var digitRun = regexp.MustCompile(`[0-9]+`)

// idKey pads every digit run of an ID to 20 places.
func idKey(id string) string {
	return digitRun.ReplaceAllStringFunc(id, func(d string) string { return strings.Repeat("0", max(0, 20-len(d))) + d })
}

// Signature renders a stable one-line encoding of the plan, used in
// checkpoint fingerprints so a resume under a different plan is rejected.
func (p Plan) Signature() string {
	if p.Empty() {
		return "none"
	}
	s := ""
	for i, e := range p.normalized() {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s:%s@%d", e.Action, e.Worker, e.Round)
	}
	return s
}

// ErrCohortCollapsed is the sentinel wrapped by CohortError; match it with
// errors.Is when the specific round/edge does not matter.
var ErrCohortCollapsed = errors.New("membership: cohort collapsed")

// CohortError reports that a planned membership change leaves an edge with
// too few live workers to satisfy its quorum — the typed, fail-fast
// alternative to hanging until RecvTimeout. It names the first offending
// round and cohort.
type CohortError struct {
	// Round is the first edge round at which the cohort is too small.
	Round int
	// Edge is the affected edge index.
	Edge int
	// Live is the number of workers still assigned to the edge at Round.
	Live int
	// Need is the minimum cohort size required (at least 1; higher when the
	// caller validates against a quorum fraction).
	Need int
}

func (e *CohortError) Error() string {
	return fmt.Sprintf("membership: edge %d cohort has %d live workers at round %d, need %d",
		e.Edge, e.Live, e.Round, e.Need)
}

// Unwrap lets errors.Is(err, ErrCohortCollapsed) match a CohortError.
func (e *CohortError) Unwrap() error { return ErrCohortCollapsed }

// MigrationPolicy selects how an edge's adaptive-γℓ momentum state is
// treated on the first aggregation after its cohort changes (a worker
// joined, left, or was re-tiered in or out).
type MigrationPolicy int

const (
	// MigrateZero resets γℓ to zero for the first aggregation of a changed
	// cohort — the conservative default, matching the paper's obtuse-angle
	// reset semantics: when the momentum direction can no longer be trusted
	// (here: it was formed by a different cohort), discard it.
	MigrateZero MigrationPolicy = iota
	// MigrateCarry keeps the momentum state untouched across the change.
	MigrateCarry
	// MigrateRescale multiplies γℓ by the data-weight fraction of the new
	// cohort that was already present in the old one, shrinking trust in the
	// momentum proportionally to cohort turnover.
	MigrateRescale
)

// String renders the policy as accepted by ParseMigrationPolicy.
func (m MigrationPolicy) String() string {
	switch m {
	case MigrateZero:
		return "zero"
	case MigrateCarry:
		return "carry"
	case MigrateRescale:
		return "rescale"
	}
	return fmt.Sprintf("policy(%d)", int(m))
}

// ParseMigrationPolicy parses "zero", "carry", or "rescale".
func ParseMigrationPolicy(s string) (MigrationPolicy, error) {
	switch s {
	case "zero":
		return MigrateZero, nil
	case "carry":
		return MigrateCarry, nil
	case "rescale":
		return MigrateRescale, nil
	}
	return 0, fmt.Errorf("membership: unknown migration policy %q (want zero|carry|rescale)", s)
}
