package telemetry

import (
	"maps"
	"slices"
	"sync"
)

// Fact is one kind of counted fact a Ledger tallies.
type Fact uint8

// The counted facts. Each is recorded by one Ledger method, except that
// MembershipJoin records a Joined or a Reassigned worker.
const (
	Rejected      Fact = iota // a report a robust aggregation excluded
	Clipped                   // an update a robust aggregation norm-clipped
	Missing                   // a report an aggregation went without
	Stale                     // a message rejected for an already completed round
	Duplicate                 // a second report from one sender in one round
	TimedOut                  // a tolerated receive timeout
	FastForwarded             // a node resynchronized past rounds completed without it
	Injected                  // a boundary report an attack plan mutated
	Joined                    // a worker admitted after round 1
	Reassigned                // a worker moved to another parent by re-tiering
	Left                      // a worker retired before the final round
	Retiered                  // a re-tiering step that changed the assignment
	Migrated                  // a γℓ migration across a cohort change
	NumFacts
)

// Ledger is a run's one record of its counted facts. Each method records one
// fact where it happens: it bumps the fact's counter on the sink, adds it to
// the tally under the tree level it happened at (0 = the root) and, when
// tracing, emits the fact's event. Both engines build their fault and attack
// reports from the tally, so a report, its counters and the trace are one
// record. The tally is kept without a sink too; it allocates only when a
// fact first reaches a level, an attack kind or a missed round, and the
// ledger is safe for concurrent use by a run's nodes. A ledger is built by
// NewLedger and must not be copied once used.
type Ledger struct {
	sink  *Sink
	depth int
	mu    sync.Mutex
	tally Tally
}

// Tally is what a ledger has counted.
type Tally struct {
	// Tiers[i][f] counts fact f at tree level i, down to the deepest level
	// with a fact; nil before the first.
	Tiers [][NumFacts]int
	// Injections counts the attack plan's injections by kind.
	Injections map[string]int
	// Missed counts the reports each level's aggregations went without, by
	// level and iteration.
	Missed map[TierRound]int
}

// TierRound keys a fact by tree level and iteration.
type TierRound struct{ Tier, T int }

// NewLedger returns the ledger of a run over a tree of the given depth that
// publishes to sink (nil: the tally alone).
func NewLedger(sink *Sink, depth int) Ledger {
	return Ledger{sink: sink, depth: depth}
}

// Sink returns the sink the ledger publishes to (nil: none).
func (l *Ledger) Sink() *Sink { return l.sink }

// Tally returns a copy of what the ledger has counted so far.
func (l *Ledger) Tally() Tally {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Tally{Tiers: slices.Clone(l.tally.Tiers), Injections: maps.Clone(l.tally.Injections), Missed: maps.Clone(l.tally.Missed)}
}

// Total sums fact f over every level.
func (t Tally) Total(f Fact) int {
	n := 0
	for _, tier := range t.Tiers {
		n += tier[f]
	}
	return n
}

// add tallies n of fact f at level tier; the caller holds mu.
func (l *Ledger) add(tier int, f Fact, n int) {
	if tier >= len(l.tally.Tiers) {
		l.tally.Tiers = append(l.tally.Tiers, make([][NumFacts]int, tier+1-len(l.tally.Tiers))...)
	}
	l.tally.Tiers[tier][f] += n
}

// fact tallies one fact f at level tier and bumps its counter c.
func (l *Ledger) fact(tier int, f Fact, c *Counter) {
	l.mu.Lock()
	l.add(tier, f, 1)
	l.mu.Unlock()
	c.Inc()
}

// RobustReject records that node's robust aggregation at iteration t, on
// the level named level at index tier, excluded the report of from.
func (l *Ledger) RobustReject(node, level string, tier, t int, from string) {
	l.fact(tier, Rejected, l.sink.M().RobustRejected)
	if l.sink.Tracing() {
		l.sink.Emit("robust_reject", String("node", node), String("tier", level), Int("tier_index", tier), Int("t", t),
			String("from", from))
	}
}

// RobustClip records that node's robust aggregation at iteration t, on the
// level named level at index tier, norm-clipped the update of from; maxNorm
// is the largest pre-clip deviation norm of the aggregation.
func (l *Ledger) RobustClip(node, level string, tier, t int, from string, maxNorm float64) {
	l.fact(tier, Clipped, l.sink.M().RobustClipped)
	l.sink.M().RobustClipNorm.Set(maxNorm)
	if l.sink.Tracing() {
		l.sink.Emit("robust_clip", String("node", node), String("tier", level), Int("tier_index", tier), Int("t", t),
			String("from", from), Float("max_norm", maxNorm))
	}
}

// QuorumMiss records an aggregation at iteration t, on the level named level
// at index tier, proceeding without missing of its children: a leaf parent
// forfeits its stragglers, every level above substitutes their last reports.
func (l *Ledger) QuorumMiss(level string, tier, t, missing int) {
	l.mu.Lock()
	l.add(tier, Missing, missing)
	if l.tally.Missed == nil {
		l.tally.Missed = make(map[TierRound]int)
	}
	l.tally.Missed[TierRound{tier, t}] += missing
	l.mu.Unlock()
	m := l.sink.M()
	m.QuorumMet.Inc()
	if tier == l.depth-2 {
		m.QuorumMissingWorkers.Add(int64(missing))
	} else {
		m.QuorumMissingEdges.Add(int64(missing))
	}
	if l.sink.Tracing() {
		l.sink.Emit("quorum", String("tier", level), Int("tier_index", tier), Int("t", t), Int("missing", missing))
	}
}

// StaleMessage records node, at level tier, rejecting a message for an
// already completed round.
func (l *Ledger) StaleMessage(node string, tier int) {
	l.nodeFact(node, tier, Stale, l.sink.M().StaleMessages, "stale_message")
}

// DuplicateReport records node, at level tier, rejecting a second report
// from one sender in one round.
func (l *Ledger) DuplicateReport(node string, tier int) {
	l.nodeFact(node, tier, Duplicate, l.sink.M().DuplicateReports, "duplicate_report")
}

// Timeout records node, at level tier, riding out a receive timeout.
func (l *Ledger) Timeout(node string, tier int) {
	l.nodeFact(node, tier, TimedOut, l.sink.M().Timeouts, "timeout")
}

// nodeFact records one fact f observed by node at level tier, its counter c
// and its event ev, which names the node alone.
func (l *Ledger) nodeFact(node string, tier int, f Fact, c *Counter, ev string) {
	l.fact(tier, f, c)
	if l.sink.Tracing() {
		l.sink.Emit(ev, String("node", node))
	}
}

// FastForward records node, at level tier, resynchronizing from its own
// iteration from to the adopted iteration to, past rounds the protocol
// completed without it. A fast-forward is recovery, not a fault: no report
// counts it.
func (l *Ledger) FastForward(node string, tier, from, to int) {
	l.fact(tier, FastForwarded, l.sink.M().FastForwards)
	if l.sink.Tracing() {
		l.sink.Emit("fastforward_resync", String("node", node), Int("from", from), Int("to", to))
	}
}

// AttackInject records a Byzantine leaf mutating its boundary report at
// iteration t with the named attack kind.
func (l *Ledger) AttackInject(node string, t int, kind string) {
	l.mu.Lock()
	l.add(l.depth-1, Injected, 1)
	if l.tally.Injections == nil {
		l.tally.Injections = make(map[string]int)
	}
	l.tally.Injections[kind]++
	l.mu.Unlock()
	l.sink.M().AttackInjected.Inc()
	if l.sink.Tracing() {
		l.sink.Emit("attack_inject", String("node", node), Int("t", t), String("kind", kind))
	}
}

// MembershipJoin records a worker admitted into a leaf parent's cohort at
// iteration t: a planned join, or a re-tiering reassignment.
func (l *Ledger) MembershipJoin(node string, t int, reassigned bool) {
	f, c, ev := Joined, l.sink.M().MembershipJoins, "membership_join"
	if reassigned {
		f, c, ev = Reassigned, l.sink.M().MembershipReassigns, "membership_reassign"
	}
	l.fact(l.depth-1, f, c)
	if l.sink.Tracing() {
		l.sink.Emit(ev, String("node", node), Int("t", t))
	}
}

// MembershipLeave records a worker retired after its final report at
// iteration t.
func (l *Ledger) MembershipLeave(node string, t int) {
	l.fact(l.depth-1, Left, l.sink.M().MembershipLeaves)
	if l.sink.Tracing() {
		l.sink.Emit("membership_leave", String("node", node), Int("t", t))
	}
}

// MembershipRetier records the root announcing at iteration t a re-tiering
// step that moves `moved` workers.
func (l *Ledger) MembershipRetier(t, moved int) {
	l.fact(0, Retiered, l.sink.M().MembershipRetiers)
	if l.sink.Tracing() {
		l.sink.Emit("membership_retier", Int("t", t), Int("moved", moved))
	}
}

// GammaMigration records the γℓ migration a leaf parent whose cohort
// changed applied at iteration t under the named policy.
func (l *Ledger) GammaMigration(node string, t int, policy string, gamma float64) {
	l.fact(l.depth-2, Migrated, l.sink.M().GammaMigrations)
	if l.sink.Tracing() {
		l.sink.Emit("gamma_migration", String("node", node), Int("t", t), String("policy", policy), Float("gamma", gamma))
	}
}
