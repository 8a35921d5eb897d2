package cluster

import (
	"fmt"
	"sort"

	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/rng"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/tensor"
	"hieradmo/internal/topology"
)

// treeSpec is what a distributed run adds to the run's tree, shared by every
// node: the tree itself (topology.Tree — levels and their aggregation rules,
// the attack plan, the membership epochs, natal children, data weights, the
// leaves' natal keys and every node's transport ID: the tree the in-process
// simulation runs too) and the rule row every level's rule is resolved from.
//
// Apart from the ledger it is pure derived data — building one performs no
// I/O, and every process of a multi-process deployment derives the identical
// spec from the shared config and options.
type treeSpec struct {
	cfg  *fl.Config
	tree *topology.Tree
	// shards holds the training leaves' datasets in leaf order
	// (fl.Config.Shards): an explicit topology regroups the same shards
	// under its fanout.
	shards []*dataset.Dataset

	// rule is the run's row of the simulation's rule table: every node takes
	// its level's rule from rule.LevelAt, as the simulation does; the leaves
	// compute their eq. (6) terms under the leaf parents'.
	rule *core.Rule
	// ledger records every counted fact of the process's nodes; the root's
	// result reports are built from its tally.
	ledger telemetry.Ledger
}

// newTreeSpec builds every level's rule on the run's tree, which
// fl.NewHarness has accepted for cfg.
func newTreeSpec(cfg *fl.Config, tree *topology.Tree, opts Options) (*treeSpec, error) {
	// The run is HierAdMo's row of the simulation's rule table, so both
	// engines resolve every level's rule in one place.
	hier := core.NewReduced
	if opts.Adaptive {
		hier = core.New
	}
	ts := &treeSpec{cfg: cfg, tree: tree, shards: cfg.Shards(),
		rule:   hier().Row(),
		ledger: telemetry.NewLedger(cfg.Telemetry, tree.Depth())}
	// A level whose rule cannot be built fails here, before any node starts.
	for i := range tree.Levels[:tree.Depth()-1] {
		if _, err := ts.rule.LevelAt(tree, cfg, i); err != nil {
			return nil, err
		}
	}
	return ts, nil
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

// syncsUp reports whether level i's round k ends in a sync with its parent,
// every syncsPerParent(i) rounds; the root has none.
func (ts *treeSpec) syncsUp(i, k int) bool { return i > 0 && k%ts.syncsPerParent(i) == 0 }

// rootSync reports whether iteration t ends a round of the root.
func (ts *treeSpec) rootSync(t int) bool { return t%ts.tau(0) == 0 }

// leafSampler is a training leaf's mini-batch stream, keyed by its natal
// coordinates as the simulation's harness keys it: the same tree draws the
// same batch sequences in both engines.
func (ts *treeSpec) leafSampler(j int) *rng.RNG {
	p, pos := ts.tree.Natal(j)
	return fl.WorkerSampler(ts.cfg.Seed, p, pos)
}

// moves lists the workers the re-tiering at leaf-parent round r moves
// (topology.Tree.Retier) as (natal parent, position, new parent) triples,
// the REASSIGN payload, and whether a re-tiering takes effect there.
func (ts *treeSpec) moves(r int) ([]float64, bool) {
	moved, ok := ts.tree.Retier(r)
	if !ok {
		return nil, false
	}
	flat := make([]float64, 0, 3*len(moved))
	for _, m := range moved {
		p, pos := ts.tree.Natal(m.Leaf)
		flat = append(flat, float64(p), float64(pos), float64(m.To))
	}
	return flat, ok
}

// position returns where child c sits in the ascending cohort kids, or false
// when it is not a member.
func position(kids []int, c int) (int, bool) {
	pos := sort.SearchInts(kids, c)
	return pos, pos < len(kids) && kids[pos] == c
}
