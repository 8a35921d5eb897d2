package fl

import (
	"fmt"
	"sort"
	"strings"

	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
)

// FaultReport records every fault a degraded distributed run survived, so
// such runs are diagnosable rather than silent: per-round missing reporters
// at both aggregation tiers, protocol-level rejections, transport-level
// injection and retry counters, and the errors of nodes that dropped out.
// A nil FaultReport on a Result means the run saw no faults at all.
type FaultReport struct {
	// MissingWorkers maps an edge-aggregation iteration t = kτ to the
	// number of workers (summed over edges) whose report was missing when
	// the quorum proceeded.
	MissingWorkers map[int]int
	// MissingEdges maps a cloud-sync iteration t = pτπ to the number of
	// edges whose report the cloud substituted with their last known state.
	MissingEdges map[int]int
	// DuplicateReports counts reports rejected because the same node
	// already reported in the same round.
	DuplicateReports int
	// StaleMessages counts messages rejected for carrying an already
	// completed round.
	StaleMessages int
	// Timeouts counts tolerated receive timeouts (a node proceeded without
	// the message instead of aborting).
	Timeouts int
	// Dropped counts messages discarded by transport fault injection.
	Dropped int
	// Retries counts transport send attempts repeated after transient
	// failures.
	Retries int
	// Crashed lists node IDs whose injected crash triggered during the run.
	Crashed []string
	// Restarted lists node IDs that crashed and came back during the run.
	Restarted []string
	// NodeErrors holds the rendered errors of nodes that dropped out of a
	// run that still completed.
	NodeErrors []string
}

// Report fills the result's three reports of a run over tree from its ledger's
// tally; both engines end here. The fault report holds the reports the
// aggregations went without (MissingWorkers at the leaf parents,
// MissingEdges above) and the duplicate, stale and timed-out counts, next to
// what extra brings from outside the nodes (the transport's totals, crashed
// nodes, dropouts); it is nil when the run saw no fault. The membership
// report comes from the tree's schedule (NewMembershipReport) and the attack
// report from the tally (NewAttackReport).
func (r *Result) Report(tree *topology.Tree, tally telemetry.Tally, extra FaultReport) {
	extra.DuplicateReports = tally.Total(telemetry.Duplicate)
	extra.StaleMessages = tally.Total(telemetry.Stale)
	extra.Timeouts = tally.Total(telemetry.TimedOut)
	if len(tally.Missed) > 0 || extra.Any() {
		rep := extra // a fault-free run allocates no report
		rep.MissingWorkers, rep.MissingEdges = make(map[int]int), make(map[int]int)
		for at, n := range tally.Missed {
			if at.Tier == tree.LeafParent() {
				rep.MissingWorkers[at.T] += n
			} else {
				rep.MissingEdges[at.T] += n
			}
		}
		r.FaultReport = &rep
	}
	r.Membership = NewMembershipReport(tree)
	r.AttackReport = NewAttackReport(tree, tally)
}

// Any reports whether the run recorded at least one fault.
func (f *FaultReport) Any() bool {
	if f == nil {
		return false
	}
	return len(f.MissingWorkers) > 0 || len(f.MissingEdges) > 0 ||
		f.DuplicateReports > 0 || f.StaleMessages > 0 || f.Timeouts > 0 ||
		f.Dropped > 0 || f.Retries > 0 || len(f.Crashed) > 0 ||
		len(f.Restarted) > 0 || len(f.NodeErrors) > 0
}

// TotalMissingWorkers sums the missing-worker counts over all rounds.
func (f *FaultReport) TotalMissingWorkers() int {
	n := 0
	for _, c := range f.MissingWorkers {
		n += c
	}
	return n
}

// TotalMissingEdges sums the substituted-edge counts over all syncs.
func (f *FaultReport) TotalMissingEdges() int {
	n := 0
	for _, c := range f.MissingEdges {
		n += c
	}
	return n
}

// String renders a multi-line human-readable fault summary.
func (f *FaultReport) String() string {
	if !f.Any() {
		return "no faults recorded"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "faults: %d dropped msgs, %d retries, %d timeouts, %d duplicates, %d stale",
		f.Dropped, f.Retries, f.Timeouts, f.DuplicateReports, f.StaleMessages)
	if len(f.Crashed) > 0 {
		fmt.Fprintf(&b, "\n  crashed nodes: %s", strings.Join(f.Crashed, ", "))
	}
	if len(f.Restarted) > 0 {
		fmt.Fprintf(&b, "\n  restarted nodes: %s", strings.Join(f.Restarted, ", "))
	}
	if len(f.MissingWorkers) > 0 {
		fmt.Fprintf(&b, "\n  missing worker reports (%d total) at t=%s",
			f.TotalMissingWorkers(), renderRounds(f.MissingWorkers))
	}
	if len(f.MissingEdges) > 0 {
		fmt.Fprintf(&b, "\n  substituted edge reports (%d total) at t=%s",
			f.TotalMissingEdges(), renderRounds(f.MissingEdges))
	}
	for _, e := range f.NodeErrors {
		fmt.Fprintf(&b, "\n  node dropout: %s", e)
	}
	return b.String()
}

// renderRounds formats a round→count map in round order.
func renderRounds(m map[int]int) string {
	rounds := make([]int, 0, len(m))
	for r := range m {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	parts := make([]string, len(rounds))
	for i, r := range rounds {
		parts[i] = fmt.Sprintf("%d(×%d)", r, m[r])
	}
	return strings.Join(parts, " ")
}
