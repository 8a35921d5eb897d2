package core

import (
	"time"

	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
)

// Stopwatch starts timing a phase for a latency histogram; without a sink
// the clock is not read at all.
func Stopwatch(sink *telemetry.Sink) time.Time {
	if sink == nil {
		return time.Time{}
	}
	return time.Now() //flvet:allow detwall -- wall-clock feeds the timing histograms only, never the trace or training state
}

// lap records the time since a stopwatch reading.
func lap(h *telemetry.Histogram, start time.Time) {
	if !start.IsZero() {
		h.Observe(time.Since(start).Seconds()) //flvet:allow detwall -- wall-clock feeds the timing histograms only, never the trace or training state
	}
}

// Publish publishes the round node n of tree level lvl ran at iteration t,
// once Tier.Update (and a hooked row's After) is done: the one place both
// engines count an aggregate, before each emits its own aggregate event and
// records the outcome's verdicts. Where the level adapts it publishes the
// eq. (6) cosine and whether eq. (7) zeroed γℓ; at the leaf parents the
// applied γℓ, to the gauge and the rule's γℓ observer; migrated records a
// γℓ migration across a cohort change. The root's rounds are cloud syncs
// (on a depth-2 tree too, where the root is the leaf parent) and carry the
// round and membership gauges; a leaf parent's below it are edge
// aggregations; each of the two times its rounds since started (zero:
// untimed). A middle tier of a deeper tree shows only in its event.
func (r *Rule) Publish(ledger *telemetry.Ledger, tree *topology.Tree, lvl, n, t int, tier *Tier, out Outcome, migrated bool, started time.Time) {
	m := ledger.Sink().M()
	if tier.lv.Adapt {
		if out.Gamma == 0 {
			m.GammaZeroed.Inc()
		}
		m.EdgeCosine.Set(out.Cos)
	}
	if migrated {
		ledger.GammaMigration(tree.ID(lvl, n), t, tree.Membership().Policy.String(), out.Applied)
	}
	lp := tree.LeafParent()
	if lvl == lp {
		m.GammaEdge.Set(out.Applied)
		if h := r.hier; h != nil && h.gammaStats != nil {
			h.gammaStats(n, out.Applied)
		}
	}
	switch {
	case lvl == 0:
		m.CloudSyncs.Inc()
		m.Round.Set(float64(t))
		if sched := tree.Membership(); sched != nil {
			k := t / tree.Levels[lp].Tau
			m.MembershipEpoch.Set(float64(sched.EpochIndex(k)))
			m.LiveWorkers.Set(float64(sched.LiveCount(k)))
		}
		lap(m.CloudSyncSeconds, started)
	case lvl == lp:
		m.EdgeAggregations.Inc()
		lap(m.EdgeAggSeconds, started)
	}
}

// RecordHandoff records on ledger the membership facts of a node of tree
// level lvl handing its round at iteration t off as h says (topology.Tree.
// Handoff), the one place both engines count them: each newcomer a join, or
// a reassignment when it was live under another parent before, and each
// retiree a leave; at the root, a re-tiering that takes effect at the leaf
// parents' next round, with the number of leaves it moves.
func RecordHandoff(ledger *telemetry.Ledger, tree *topology.Tree, lvl, t int, h topology.Handoff) {
	for c, j := range h.Joins {
		ledger.MembershipJoin(tree.ID(lvl+1, j), t, h.Moved[c])
	}
	for _, j := range h.Retires {
		ledger.MembershipLeave(tree.ID(lvl+1, j), t)
	}
	if lvl > 0 {
		return
	}
	if moves, ok := tree.Retier(t/tree.Levels[tree.LeafParent()].Tau + 1); ok {
		ledger.MembershipRetier(t, len(moves))
	}
}

// RecordVerdicts records on ledger what the robust rule of node n at tree
// level lvl decided at iteration t, for both engines: report slot j held the
// node at position idx[j] of the cohort kids, on tree level lvl+1. A round
// without a verdict reads no ID, so a simulation without one never mints
// the tree's IDs.
func (o Outcome) RecordVerdicts(ledger *telemetry.Ledger, tree *topology.Tree, lvl, n, t int, kids, idx []int) {
	if len(o.Robust.Rejected) == 0 && len(o.Robust.Clipped) == 0 {
		return
	}
	node, level := tree.ID(lvl, n), tree.Levels[lvl].Name
	for _, j := range o.Robust.Rejected {
		ledger.RobustReject(node, level, lvl, t, tree.ID(lvl+1, kids[idx[j]]))
	}
	for _, j := range o.Robust.Clipped {
		ledger.RobustClip(node, level, lvl, t, tree.ID(lvl+1, kids[idx[j]]), o.Robust.MaxNorm)
	}
}
