package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/rng"
	"hieradmo/internal/robust"
	"hieradmo/internal/topology"
)

// treeSpec is the precomputed shape of a run, shared by every node: it is
// the one module that answers who a node's children are in a given round,
// with what weights, and under what transport IDs. An explicit
// Options.Topology yields a uniform-fanout tree with "<level>-<index>" IDs;
// without one the shape is derived from the config — cloud over cfg.Edges
// (possibly ragged) over workers, with the cloud / edge-ℓ / worker-ℓ-i IDs
// that fault, churn and attack plans, the per-node noise streams and
// checkpoint file names are keyed by. With dynamic membership the
// leaf-parent level's children and every level's weights additionally vary
// by membership epoch.
//
// It is pure derived data — building one performs no I/O, and every process
// of a multi-process deployment derives the identical spec from the shared
// config and options.
type treeSpec struct {
	cfg *fl.Config
	// levels is the chain of tiers, root first: name, sync period τℓ and the
	// explicit per-level attributes of a topology spec. Fanout is only
	// meaningful for explicit topologies; the derived shape may be ragged.
	levels []topology.Level
	// shape is the canonical rendering of the tree, part of every checkpoint
	// fingerprint so snapshots never cross tree shapes.
	shape string
	// ids[i][j] is the transport ID of node j at level i; index inverts it.
	ids   [][]string
	index map[string]nodeAddr
	// kids[i][j] lists, ascending, the level-(i+1) indices of the natal
	// children of node j at level i; parent[i][j] (i ≥ 1) is the inverse.
	kids   [][][]int
	parent [][]int
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
	// static run has exactly one.
	epochs []epochShape
}

// nodeAddr addresses a node by level and index within the level.
type nodeAddr struct{ lvl, idx int }

// epochShape is the tree during one membership epoch.
type epochShape struct {
	// kids is treeSpec.kids except at the leaf-parent level, where it lists
	// the epoch's live cohorts (ascending leaf index, which is Ref order).
	kids [][][]int
	// weights[i][j][c] is the data weight of the c-th child of node j at
	// level i: the child subtree's live sample count over the node's. Both
	// are exact integers, so a leaf-parent's weights are bitwise the
	// harness's D(i,ℓ)/Dℓ and a 3-level root's its Dℓ/D — matched shapes
	// aggregate with the coefficients of the in-process simulation.
	weights [][][]float64
}

// newTreeSpec resolves the run's tree from the config and options and
// validates them against each other.
func newTreeSpec(cfg *fl.Config, opts Options) (*treeSpec, error) {
	ts := &treeSpec{cfg: cfg, policy: opts.Migration}
	// fan(i, j) is the child count of node j at level i; id names node idx
	// of level i, the pos-th child of node parent.
	var (
		fan func(i, j int) int
		id  func(i, idx, parent, pos int) string
	)
	if topo := opts.Topology; topo != nil {
		if err := topo.Validate(); err != nil {
			return nil, err
		}
		if err := topo.AlignsWith(cfg.T); err != nil {
			return nil, err
		}
		if topo.NumLeaves() != cfg.NumWorkers() {
			return nil, fmt.Errorf("cluster: topology %q has %d leaves for %d configured workers",
				topo, topo.NumLeaves(), cfg.NumWorkers())
		}
		ts.levels = topo.Levels
		ts.shape = topo.String()
		fan = func(i, _ int) int { return topo.Levels[i+1].Fanout }
		id = func(i, idx, _, _ int) string { return topo.NodeID(i, idx) }
	} else {
		ts.levels = []topology.Level{
			{Name: "cloud", Tau: cfg.Tau * cfg.Pi},
			{Name: "edge", Tau: cfg.Tau},
			{Name: "worker", Tau: 1},
		}
		ts.shape = derivedShape(cfg)
		fan = func(i, j int) int {
			if i == 0 {
				return len(cfg.Edges)
			}
			return len(cfg.Edges[j])
		}
		id = func(i, idx, parent, pos int) string {
			switch i {
			case 0:
				return CloudID
			case 1:
				return EdgeID(idx)
			}
			return WorkerID(parent, pos)
		}
	}
	depth := len(ts.levels)
	ts.ids = make([][]string, depth)
	ts.kids = make([][][]int, depth-1)
	ts.parent = make([][]int, depth)
	ts.ids[0] = []string{id(0, 0, 0, 0)}
	for i := 0; i < depth-1; i++ {
		ts.kids[i] = make([][]int, len(ts.ids[i]))
		for j := range ts.ids[i] {
			for pos := 0; pos < fan(i, j); pos++ {
				child := len(ts.ids[i+1])
				ts.kids[i][j] = append(ts.kids[i][j], child)
				ts.parent[i+1] = append(ts.parent[i+1], j)
				ts.ids[i+1] = append(ts.ids[i+1], id(i+1, child, j, pos))
			}
		}
	}
	ts.index = make(map[string]nodeAddr)
	for i, lvl := range ts.ids {
		for j, nodeID := range lvl {
			ts.index[nodeID] = nodeAddr{i, j}
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
	for i, lv := range ts.levels[:depth-1] {
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

	cohorts := [][][]int{ts.kids[lp]}
	if opts.churnEnabled() {
		var err error
		if cohorts, err = ts.buildSchedule(opts); err != nil {
			return nil, err
		}
	}
	for _, c := range cohorts {
		ep, err := ts.newEpoch(c)
		if err != nil {
			return nil, err
		}
		ts.epochs = append(ts.epochs, ep)
	}
	return ts, nil
}

// derivedShape renders the config's cloud/edge/worker shape in the topology
// grammar; a ragged edge tier lists its per-edge worker counts.
func derivedShape(cfg *fl.Config) string {
	workers := strconv.Itoa(len(cfg.Edges[0]))
	for _, edge := range cfg.Edges {
		if len(edge) != len(cfg.Edges[0]) {
			sizes := make([]string, len(cfg.Edges))
			for l := range cfg.Edges {
				sizes[l] = strconv.Itoa(len(cfg.Edges[l]))
			}
			workers = "[" + strings.Join(sizes, ",") + "]"
			break
		}
	}
	return fmt.Sprintf("cloud:tau=%d/edge*%d:tau=%d/worker*%s",
		cfg.Tau*cfg.Pi, len(cfg.Edges), cfg.Tau, workers)
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

// newEpoch computes the weights of the tree whose leaf-parent level has the
// given cohorts.
func (ts *treeSpec) newEpoch(cohorts [][]int) (epochShape, error) {
	depth, lp := ts.depth(), ts.leafParent()
	ep := epochShape{
		kids:    append([][][]int(nil), ts.kids...),
		weights: make([][][]float64, depth-1),
	}
	ep.kids[lp] = cohorts
	// Live subtree sample counts, integer-exact, leaves up.
	sizes := make([][]int, depth)
	sizes[depth-1] = make([]int, len(ts.shards))
	for j, shard := range ts.shards {
		sizes[depth-1][j] = shard.Len()
	}
	for i := depth - 2; i >= 0; i-- {
		sizes[i] = make([]int, len(ts.ids[i]))
		ep.weights[i] = make([][]float64, len(ts.ids[i]))
		for j, kids := range ep.kids[i] {
			for _, c := range kids {
				sizes[i][j] += sizes[i+1][c]
			}
			if sizes[i][j] == 0 {
				return epochShape{}, fmt.Errorf("cluster: node %s covers no samples", ts.ids[i][j])
			}
			w := make([]float64, len(kids))
			for pos, c := range kids {
				w[pos] = float64(sizes[i+1][c]) / float64(sizes[i][j])
			}
			ep.weights[i][j] = w
		}
	}
	return ep, nil
}

func (ts *treeSpec) depth() int      { return len(ts.levels) }
func (ts *treeSpec) leafParent() int { return len(ts.levels) - 2 }
func (ts *treeSpec) tau(i int) int   { return ts.levels[i].Tau }

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
	p := ts.parent[ts.depth()-1][j]
	return membership.Ref{Edge: p, Index: j - ts.kids[ts.leafParent()][p][0]}
}

// leafOf inverts ref.
func (ts *treeSpec) leafOf(r membership.Ref) int {
	return ts.kids[ts.leafParent()][r.Edge][0] + r.Index
}

// leafSampler keys a training leaf's mini-batch stream by its natal (parent,
// position) coordinates, the harness's (edge, worker) keying: a shape
// matching the config reproduces the simulation's exact batch sequences.
func (ts *treeSpec) leafSampler(j int) *rng.RNG {
	r := ts.ref(j)
	return fl.WorkerSampler(ts.cfg.Seed, r.Edge, r.Index)
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
