package topology

import (
	"fmt"
	"slices"

	"hieradmo/internal/membership"
)

// Membership is a tree's membership trajectory (WithMembership): the
// schedule of its leaf-parent level, the γℓ migration rule, the token naming
// both in checkpoint fingerprints, and the tree during every epoch.
type Membership struct {
	*membership.Schedule
	Policy membership.MigrationPolicy
	// Token is "churn=<plan> retier=<k> migrate=<policy>".
	Token  string
	epochs []epoch
}

// epoch is the tree during one membership epoch: Kids but for the
// leaf-parent level's cohorts (ascending leaf indices), the weights Weigh
// gives them over the live subtrees, every leaf's weight in the global
// objective (0 off the cohorts) and the cohorts' leaves, ascending.
type epoch struct {
	kids    [][][]int
	weights [][][]float64
	global  []float64
	live    []int
}

// Handoff is node j of level i's hand-off of its round-k aggregate
// (Tree.Handoff): the children it goes to, and the membership transitions
// it carries, which only a leaf parent's can.
type Handoff struct {
	// Cohort is the children the aggregate goes to, ascending: Children at
	// round min(k+1, the last), the cohort of the node's next round.
	Cohort []int
	// Joins lists Cohort's newcomers, ascending: children outside round k's
	// cohort, which take the aggregate as their starting state. Moved[c]
	// reports whether Joins[c] was live under another parent before, a
	// re-tiering move rather than a join.
	Joins []int
	Moved []bool
	// Retires lists the round-k members whose last round k was, ascending;
	// a member whose last round is the run's retires nowhere.
	Retires []int
}

// Joined reports whether child c is one of the hand-off's newcomers.
func (h Handoff) Joined(c int) bool {
	_, ok := slices.BinarySearch(h.Joins, c)
	return ok
}

// Move is one leaf a re-tiering reassigns: from the re-tiering's round on,
// leaf Leaf reports to leaf parent To.
type Move struct{ Leaf, To int }

// WithMembership returns the tree a run under the churn plan executes, the
// one place a plan meets a tree: an entry naming anything but a training
// leaf is refused, naming the ID and the tree, and the plan, the leaves'
// clustering statistics (in leaf order), the horizon T and the re-tiering
// cadence in root syncs build the schedule of the leaf-parent level, whose
// rounds are that level's. An unknown migration policy is refused, and so,
// with ErrAttr, is a tree that samples participants (WithParticipation).
// Neither t nor the plan changes; an empty plan without re-tiering returns t
// itself.
func (t *Tree) WithMembership(plan membership.Plan, stats []membership.WorkerStat, T, retierEvery int, policy membership.MigrationPolicy) (*Tree, error) {
	if policy < membership.MigrateZero || policy > membership.MigrateRescale {
		return nil, fmt.Errorf("topology: unknown migration policy %d", policy)
	}
	if plan.Empty() && retierEvery == 0 {
		return t, nil
	}
	if t.part != nil {
		return nil, fmt.Errorf("%w: the tree %s samples part=%g of its leaf parents' children, which membership epochs do not run with",
			ErrAttr, t, t.Participation())
	}
	leaves := make([]int, len(plan.Events))
	for e, ev := range plan.Events {
		lvl, j, ok := t.Lookup(ev.Worker)
		if !ok || lvl != t.Depth()-1 {
			return nil, fmt.Errorf("topology: the churn plan names %q, not a training leaf of the tree %s", ev.Worker, t)
		}
		leaves[e] = j
	}
	lp := t.LeafParent()
	tau := t.Levels[lp].Tau
	sched, err := membership.BuildSchedule(plan, leaves, t.Parent[lp+1], stats, T/tau, t.Levels[0].Tau/tau, retierEvery)
	if err != nil {
		return nil, err
	}
	m := &Membership{Schedule: sched, Policy: policy,
		Token: fmt.Sprintf("churn=%s retier=%d migrate=%s", plan.Signature(), retierEvery, policy)}
	for k := 1; k <= sched.K; k++ {
		if sched.EpochIndex(k) < len(m.epochs) {
			continue
		}
		ep := epoch{kids: slices.Clone(t.Kids)}
		ep.kids[lp] = sched.EpochAt(k).Cohorts
		if ep.weights, err = t.Weigh(ep.kids); err != nil {
			return nil, err
		}
		ep.global = paths(ep.kids, ep.weights, t.NumLeaves())
		ep.live = slices.Concat(ep.kids[lp]...)
		slices.Sort(ep.live)
		m.epochs = append(m.epochs, ep)
	}
	churned := t.clone()
	churned.churn = m
	return churned, nil
}

// Membership returns the run's membership trajectory, nil for a static tree.
func (t *Tree) Membership() *Membership { return t.churn }

// Epoch returns the index of the membership epoch in force during round k
// of level i, 0 on a static tree.
func (t *Tree) Epoch(i, k int) int {
	if t.churn == nil {
		return 0
	}
	return t.churn.EpochIndex(k * t.Levels[i].Tau / t.Levels[t.LeafParent()].Tau)
}

// Children returns the children of node j at level i during its round k and
// their data weights: the natal ones on a static tree, the epoch's cohort
// and its weights over the live subtrees under membership.
func (t *Tree) Children(i, j, k int) ([]int, []float64) {
	if t.churn == nil {
		return t.Kids[i][j], t.Weights[i][j]
	}
	ep := &t.churn.epochs[t.Epoch(i, k)]
	return ep.kids[i][j], ep.weights[i][j]
}

// Handoff returns node j of level i's hand-off of its round-k aggregate:
// the cohort of its next round — of its last, after the last — and, where
// a leaf parent's cohort changes there, the newcomers it admits and the
// members it retires. A static tree's is the natal cohort, and only a
// changing cohort's allocates.
func (t *Tree) Handoff(i, j, k int) Handoff {
	if t.churn == nil {
		return Handoff{Cohort: t.Kids[i][j]}
	}
	m, lp := t.churn, t.LeafParent()
	var h Handoff
	h.Cohort, _ = t.Children(i, j, min(k+1, m.K*t.Levels[lp].Tau/t.Levels[i].Tau))
	if i != lp || k >= m.K || m.EpochIndex(k+1) == m.EpochIndex(k) {
		return h
	}
	prev, _ := t.Children(i, j, k)
	for _, c := range h.Cohort {
		if join, _ := m.Span(c); !slices.Contains(prev, c) {
			h.Joins, h.Moved = append(h.Joins, c), append(h.Moved, join <= k)
		}
	}
	for _, c := range prev {
		if _, last := m.Span(c); last == k {
			h.Retires = append(h.Retires, c)
		}
	}
	return h
}

// Retier returns the moves of the re-tiering that takes effect at
// leaf-parent round r, and whether one does: true only at the first round
// of an epoch a re-tiering opened. A leaf that joins at r is no move.
func (t *Tree) Retier(r int) ([]Move, bool) {
	if t.churn == nil {
		return nil, false
	}
	if e := t.churn.EpochAt(r); !e.Retier || e.Start != r {
		return nil, false
	}
	var moves []Move
	for _, c := range t.churn.ReassignedAt(r) {
		to, _ := t.churn.EdgeOf(r, c)
		moves = append(moves, Move{Leaf: c, To: to})
	}
	return moves, true
}

// Fanout returns the most children node j of level i has in any epoch.
func (t *Tree) Fanout(i, j int) int {
	fan := len(t.Kids[i][j])
	if t.churn != nil {
		fan = 0
		for _, ep := range t.churn.epochs {
			fan = max(fan, len(ep.kids[i][j]))
		}
	}
	return fan
}

// Carry is the factor leaf parent j carries its momentum over by at its
// round k, and whether its cohort changed there: on a change the migration
// rule zeroes γℓ, keeps it, or rescales it by the fraction of the new
// cohort's data already present in the old.
func (t *Tree) Carry(j, k int) (float64, bool) {
	if t.churn == nil {
		return 1, false
	}
	frac, changed := t.churn.Overlap(k, j)
	switch {
	case !changed || t.churn.Policy == membership.MigrateCarry:
		return 1, changed
	case t.churn.Policy == membership.MigrateRescale:
		return frac, true
	}
	return 0, true
}

// Live returns the leaves' weights in the global objective at iteration
// iter and the leaves that train then, ascending: Global and nil (every
// leaf) on a static tree, the epoch's under membership, where a leaf off
// the cohorts weighs 0.
func (t *Tree) Live(iter int) ([]float64, []int) {
	if t.churn == nil {
		return t.Global, nil
	}
	tau := t.Levels[t.LeafParent()].Tau
	ep := &t.churn.epochs[t.churn.EpochIndex((iter+tau-1)/tau)]
	return ep.global, ep.live
}
