package cluster

import (
	"fmt"
	"sort"

	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/rng"
	"hieradmo/internal/robust"
	"hieradmo/internal/tensor"
	"hieradmo/internal/topology"
)

// treeSpec is what a distributed run adds to the run's tree, shared by every
// node: the tree itself (topology.Tree — levels, natal children, data
// weights and the leaves' natal keys, the shape the in-process simulation
// runs too), the transport IDs and their index, each aggregating level's
// rules resolved from the options, and the membership epochs. An explicit
// Options.Topology names nodes "<level>-<index>"; the configuration's own
// tree keeps the cloud / edge-ℓ / worker-ℓ-i IDs that fault, churn and
// attack plans, the per-node noise streams and checkpoint file names are
// keyed by. With dynamic membership the leaf-parent level's children and
// every level's weights additionally vary by membership epoch.
//
// It is pure derived data — building one performs no I/O, and every process
// of a multi-process deployment derives the identical spec from the shared
// config and options.
type treeSpec struct {
	cfg  *fl.Config
	tree *topology.Tree
	// ids[i][j] is the transport ID of node j at level i; index inverts it.
	ids   [][]string
	index map[string]nodeAddr
	// shards holds the training leaves' datasets, cfg.Edges flattened in
	// order: an explicit topology regroups the same shards under its fanout.
	shards []*dataset.Dataset

	// agg[i], gamma[i] and adapt[i] are aggregating level i's resolved
	// aggregation rule, momentum factor and adaptive-γℓ toggle; momentum[i]
	// marks levels that execute the Algorithm 1 line-13 momentum update at
	// all. Non-momentum levels (γℓ = 0, not adaptive) run the plain average
	// of lines 18–19.
	agg      []robust.Spec
	gamma    []float64
	adapt    []bool
	momentum []bool

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

// nodeAddr addresses a node by level and index within the level.
type nodeAddr struct{ lvl, idx int }

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
	ts := &treeSpec{cfg: cfg, tree: tree, policy: opts.Migration}
	depth := tree.Depth()
	ts.ids = make([][]string, depth)
	ts.index = make(map[string]nodeAddr)
	for i := range ts.ids {
		ts.ids[i] = make([]string, tree.Width(i))
		for j := range ts.ids[i] {
			ts.ids[i][j] = ts.nodeID(i, j)
			ts.index[ts.ids[i][j]] = nodeAddr{i, j}
		}
	}
	for _, edge := range cfg.Edges {
		ts.shards = append(ts.shards, edge...)
	}

	lp := ts.leafParent()
	ts.agg = make([]robust.Spec, depth-1)
	ts.gamma = make([]float64, depth-1)
	ts.adapt = make([]bool, depth-1)
	ts.momentum = make([]bool, depth-1)
	for i, lv := range tree.Levels[:depth-1] {
		// An explicit agg= in a spec wins; otherwise the leaf-parent and root
		// levels default to the run's Edge/CloudAggregator options.
		ts.agg[i] = lv.Agg
		if !lv.Agg.Robust() {
			switch i {
			case lp:
				ts.agg[i] = opts.EdgeAggregator
			case 0:
				ts.agg[i] = opts.CloudAggregator
			}
		}
		if lv.HasGamma {
			ts.gamma[i] = lv.Gamma
		} else if i == lp {
			ts.gamma[i] = cfg.GammaEdge
		}
		if i == lp {
			ts.adapt[i] = opts.Adaptive
			if lv.HasAdapt {
				ts.adapt[i] = lv.Adapt
			}
		}
		ts.momentum[i] = ts.adapt[i] || ts.gamma[i] != 0
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
		kids[lp] = c
		weights, err := tree.Weigh(kids)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		ts.epochs = append(ts.epochs, epochShape{kids: kids, weights: weights})
	}
	return ts, nil
}

// nodeID names node idx of level i: the spec's "<level>-<index>", or the
// configuration's own tree's cloud / edge-ℓ / worker-ℓ-i.
func (ts *treeSpec) nodeID(i, idx int) string {
	switch {
	case ts.tree.Spec != nil:
		return ts.tree.Spec.NodeID(i, idx)
	case i == 0:
		return CloudID
	case i == 1:
		return EdgeID(idx)
	}
	return WorkerID(ts.tree.Natal(idx))
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
	sched, err := membership.BuildSchedule(plan, stats, len(ts.ids[lp]),
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
		epoch := make([][]int, len(ts.ids[lp]))
		for l, refs := range sched.EpochAt(k).Cohorts {
			for _, ref := range refs {
				epoch[l] = append(epoch[l], ts.leafOf(ref))
			}
		}
		cohorts = append(cohorts, epoch)
	}
	return cohorts, nil
}

// level is aggregating level i's kernel rule without its robust aggregator,
// which holds scratch and so is built by the node that aggregates. The leaves
// compute their eq. (6) terms under the leaf-parent's.
func (ts *treeSpec) level(i int, x0 tensor.Vector, opts Options) core.Level {
	return core.Level{
		Momentum: ts.momentum[i],
		Adapt:    ts.adapt[i],
		Gamma:    ts.gamma[i],
		Signal:   opts.Signal,
		Ceiling:  opts.Ceiling,
		Tau:      ts.tau(i),
		X0:       x0,
	}
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
