package cluster

import (
	"fmt"
	"sort"

	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
	"hieradmo/internal/topology"
)

// treeSpec is what a distributed run adds to the run's tree, shared by every
// node: the tree itself (topology.Tree — levels and their aggregation rules,
// the attack plan, natal children, data weights, the leaves' natal keys and
// every node's transport ID: the tree the in-process simulation runs too), the rule row
// every level's rule is resolved from, and the membership epochs. With
// dynamic membership the leaf-parent level's children and every level's
// weights additionally vary by membership epoch.
//
// It is pure derived data — building one performs no I/O, and every process
// of a multi-process deployment derives the identical spec from the shared
// config and options.
type treeSpec struct {
	cfg  *fl.Config
	tree *topology.Tree
	// shards holds the training leaves' datasets, cfg.Edges flattened in
	// order: an explicit topology regroups the same shards under its fanout.
	shards []*dataset.Dataset

	// rule is the run's row of the simulation's rule table: every node takes
	// its level's rule from rule.LevelAt, as the simulation does; the leaves
	// compute their eq. (6) terms under the leaf parents'.
	rule *core.Rule

	// sched is the membership trajectory of a churn run (nil when membership
	// is static) and policy its γℓ migration rule. Membership acts at the
	// leaf-parent level: the schedule's "edges" are the leaf-parent nodes,
	// its rounds their aggregation rounds, and re-tiering steps align to
	// root syncs.
	sched  *membership.Schedule
	policy membership.MigrationPolicy
	// epochs holds the children and weights of every membership epoch; a
	// static run has exactly one, the tree's own.
	epochs []epochShape
}

// epochShape is the tree during one membership epoch.
type epochShape struct {
	// kids is the tree's Kids except at the leaf-parent level, where it
	// lists the epoch's live cohorts (ascending leaf index, which is Ref
	// order).
	kids [][][]int
	// weights[i][j][c] is the data weight of the c-th child of node j at
	// level i, weighed by the tree over the live subtrees (Tree.Weigh).
	weights [][][]float64
}

// newTreeSpec resolves the run's tree from the config and options and
// validates them against each other.
func newTreeSpec(cfg *fl.Config, opts Options) (*treeSpec, error) {
	tree, err := cfg.Tree(opts.Topology)
	if err != nil {
		return nil, err
	}
	if tree, err = tree.WithAggregators(opts.EdgeAggregator, opts.CloudAggregator).WithAttackPlan(opts.AttackPlan); err != nil {
		return nil, err
	}
	// The run is HierAdMo's row of the simulation's rule table, so both
	// engines resolve every level's rule in one place.
	hier := core.NewReduced
	if opts.Adaptive {
		hier = core.New
	}
	ts := &treeSpec{cfg: cfg, tree: tree, policy: opts.Migration,
		rule: hier(core.WithAdaptSignal(opts.Signal), core.WithClampCeiling(opts.Ceiling)).Row()}
	// A level whose rule cannot be built fails here, before any node starts.
	for i := range tree.Levels[:tree.Depth()-1] {
		if _, err := ts.rule.LevelAt(tree, cfg, i); err != nil {
			return nil, err
		}
	}
	for _, edge := range cfg.Edges {
		ts.shards = append(ts.shards, edge...)
	}

	if !opts.churnEnabled() {
		ts.epochs = []epochShape{{kids: tree.Kids, weights: tree.Weights}}
		return ts, nil
	}
	cohorts, err := ts.buildSchedule(opts)
	if err != nil {
		return nil, err
	}
	for _, c := range cohorts {
		kids := append([][][]int(nil), tree.Kids...)
		kids[ts.leafParent()] = c
		weights, err := tree.Weigh(kids)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		ts.epochs = append(ts.epochs, epochShape{kids: kids, weights: weights})
	}
	return ts, nil
}

// buildSchedule precomputes the membership trajectory and returns every
// epoch's leaf-parent cohorts as leaf indices. Every node — in-process or
// remote — derives the bit-identical schedule from the same (cfg, opts),
// the determinism anchor of the whole subsystem.
func (ts *treeSpec) buildSchedule(opts Options) ([][][]int, error) {
	numClasses := 0
	for _, shard := range ts.shards {
		if c := len(shard.ClassCounts()); c > numClasses {
			numClasses = c
		}
	}
	// Per-worker clustering statistics: the data weight (shard size) and the
	// label histogram that drives re-tiering's distribution-distance
	// clustering, both pure functions of the dataset.
	stats := make([]membership.WorkerStat, len(ts.shards))
	for j, shard := range ts.shards {
		hist := make([]float64, numClasses)
		for c, n := range shard.ClassCounts() {
			hist[c] = float64(n)
		}
		stats[j] = membership.WorkerStat{Ref: ts.ref(j), Weight: float64(shard.Len()), Hist: hist}
	}
	plan := membership.Plan{}
	if opts.ChurnPlan != nil {
		plan = opts.ChurnPlan.Clone()
	}
	lp := ts.leafParent()
	sched, err := membership.BuildSchedule(plan, stats, ts.tree.Width(lp),
		ts.cfg.T/ts.tau(lp), ts.tau(0)/ts.tau(lp), opts.RetierEvery)
	if err != nil {
		return nil, err
	}
	ts.sched = sched
	var cohorts [][][]int
	for k := 1; k <= sched.K; k++ {
		if sched.EpochIndex(k) < len(cohorts) {
			continue
		}
		epoch := make([][]int, ts.tree.Width(lp))
		for l, refs := range sched.EpochAt(k).Cohorts {
			for _, ref := range refs {
				epoch[l] = append(epoch[l], ts.leafOf(ref))
			}
		}
		cohorts = append(cohorts, epoch)
	}
	return cohorts, nil
}

// level is aggregating level i's rule at the initialization x0, with a
// robust aggregator of the caller's own. newTreeSpec has built every level's
// rule from the same immutable inputs, so a failure here is a bug.
func (ts *treeSpec) level(i int, x0 tensor.Vector) core.Level {
	lv, err := ts.rule.LevelAt(ts.tree, ts.cfg, i)
	if err != nil {
		panic(fmt.Sprintf("cluster: level %d's rule built in newTreeSpec fails now: %v", i, err))
	}
	lv.X0 = x0
	return lv
}

func (ts *treeSpec) depth() int      { return ts.tree.Depth() }
func (ts *treeSpec) leafParent() int { return ts.tree.LeafParent() }
func (ts *treeSpec) tau(i int) int   { return ts.tree.Levels[i].Tau }

// syncsPerParent is how many of level i's rounds fit in one of its parent's
// (τ_{i-1}/τ_i), the tree analogue of π.
func (ts *treeSpec) syncsPerParent(i int) int { return ts.tau(i-1) / ts.tau(i) }

// epochAt returns the membership epoch in force during round k of level i.
func (ts *treeSpec) epochAt(i, k int) int {
	if ts.sched == nil {
		return 0
	}
	return ts.sched.EpochIndex(k * ts.tau(i) / ts.tau(ts.leafParent()))
}

// children returns the level-(i+1) indices and data weights of the children
// of node j at level i during its round k.
func (ts *treeSpec) children(i, j, k int) ([]int, []float64) {
	ep := &ts.epochs[ts.epochAt(i, k)]
	return ep.kids[i][j], ep.weights[i][j]
}

// ref is leaf j's membership identity: its natal leaf-parent and position.
func (ts *treeSpec) ref(j int) membership.Ref {
	p, pos := ts.tree.Natal(j)
	return membership.Ref{Edge: p, Index: pos}
}

// leafOf inverts ref.
func (ts *treeSpec) leafOf(r membership.Ref) int { return ts.tree.Leaf(r.Edge, r.Index) }

// leafSampler is a training leaf's mini-batch stream, keyed by its natal
// coordinates as the simulation's harness keys it: the same tree draws the
// same batch sequences in both engines.
func (ts *treeSpec) leafSampler(j int) *rng.RNG {
	p, pos := ts.tree.Natal(j)
	return fl.WorkerSampler(ts.cfg.Seed, p, pos)
}

// position returns where child c sits in the ascending cohort kids, or false
// when it is not a member.
func position(kids []int, c int) (int, bool) {
	pos := sort.SearchInts(kids, c)
	return pos, pos < len(kids) && kids[pos] == c
}

// membershipReport converts the schedule's summary into the user-facing
// report attached to fl.Result; nil for static membership.
func (ts *treeSpec) membershipReport() *fl.MembershipReport {
	if ts.sched == nil {
		return nil
	}
	s := ts.sched.Summarize()
	return &fl.MembershipReport{
		Joins:           s.Joins,
		Leaves:          s.Leaves,
		Reassignments:   s.Reassignments,
		Retierings:      s.Retierings,
		Epochs:          s.Epochs,
		InitialWorkers:  s.InitialWorkers,
		FinalWorkers:    s.FinalWorkers,
		MigrationPolicy: ts.policy.String(),
	}
}
