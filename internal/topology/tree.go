package topology

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"hieradmo/internal/robust"
)

// Tree is a resolved aggregation tree: the shape both execution engines run.
// It is the one place that lays out the nodes of every level, orders the
// training leaves, keys each leaf by its natal (parent, position)
// coordinates, weighs every node's children by their integer subtree
// sample counts, names every node with its transport ID, and holds each
// level's aggregation rule, and a run's attack plan, participant sample and
// membership epochs.
// The in-process simulation (internal/core) and the distributed runtime
// (internal/cluster) both build their levels from it, so the two engines
// cannot disagree on the shape.
//
// A Tree is pure derived data, built once per run and read-only afterwards.
type Tree struct {
	// Levels is the chain of tiers, root first: name, sync period τℓ and
	// the explicit attributes of a spec, with a run's default aggregation
	// rules merged in by WithAggregators. Fanout is meaningful only on a
	// spec's own tree, not on a derived one, which may be ragged, nor on a
	// flat view (Flat).
	Levels []Level
	// Spec is the topology the tree was resolved from, nil for the tree
	// derived from a run configuration's cloud / edge / worker grouping.
	Spec *Topology
	// Kids[i][j] lists the level-(i+1) indices of the natal children of
	// node j at level i: ascending and contiguous, so leaf order is the
	// leaf parents' children in node order. Parent[i][j] (i ≥ 1) inverts it.
	Kids   [][][]int
	Parent [][]int
	// Sizes[i][j] is the sample count of the subtree under node j of level
	// i; a leaf's is its shard's.
	Sizes [][]int
	// Weights[i][j][c] is the data weight of node j's c-th child: the
	// child's Sizes over the node's, a ratio of exact integers — D(i,ℓ)/Dℓ
	// at a three-level tree's edges and Dℓ/D at its root.
	Weights [][][]float64
	// Global[j] is leaf j's weight in the global objective: the product of
	// the weights on its path, root first — Dℓ/D · D(i,ℓ)/Dℓ on a
	// three-level tree.
	Global []float64

	// attack is the run's attack plan (WithAttackPlan), nil for none, part
	// its participant sample (WithParticipation), nil when every child
	// reports, and churn its membership trajectory (WithMembership), nil for
	// static.
	attack *robust.AttackPlan
	part   *participation
	churn  *Membership
	// from is the tree a flat view (Flat) flattens, nil for any other tree:
	// its leaves keep their natal coordinates there.
	from *Tree
	// names is the transport-ID table, minted on first use: a plan-less
	// simulation never reads an ID, so its runs never pay for one.
	names idTable
}

// idTable is a tree's transport IDs, ids[i][j] naming node j of level i and
// index inverting it.
type idTable struct {
	once  sync.Once
	ids   [][]string
	index map[string][2]int
}

// Resolve lays the spec's tree over training leaves holding the given
// sample counts, in leaf order; the tree keeps leafSizes as its leaves'
// Sizes.
func (t *Topology) Resolve(leafSizes []int) (*Tree, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return build(t.Levels, t, func(i, _ int) int { return t.Levels[i+1].Fanout }, leafSizes)
}

// Derive lays out the three-level tree a run configuration describes: a
// cloud syncing every τ·π iterations over one edge per cohort, each syncing
// every τ over its cohort's workers. cohorts[ℓ] is edge ℓ's worker count —
// cohorts may differ in size — and leafSizes the workers' sample counts,
// edge 0's first, which the tree keeps as its leaves' Sizes.
func Derive(tau, pi int, cohorts, leafSizes []int) (*Tree, error) {
	if tau < 1 || pi < 1 || len(cohorts) == 0 {
		return nil, fmt.Errorf("topology: cannot derive a tree from tau=%d pi=%d over %d edges", tau, pi, len(cohorts))
	}
	for _, n := range cohorts {
		if n < 1 {
			return nil, fmt.Errorf("topology: cannot derive a tree with an empty edge")
		}
	}
	levels := []Level{
		{Name: "cloud", Tau: tau * pi},
		{Name: "edge", Tau: tau},
		{Name: "worker", Tau: 1},
	}
	fan := func(i, j int) int {
		if i == 0 {
			return len(cohorts)
		}
		return cohorts[j]
	}
	return build(levels, nil, fan, leafSizes)
}

// build lays out the nodes level by level, fan(i, j) giving the child count
// of node j at level i, and weighs them over the leaves' sample counts. A
// run builds its tree once, so the layout takes a handful of allocations
// whatever the depth: every per-level and per-node array is a window of a
// few shared blocks.
func build(levels []Level, spec *Topology, fan func(i, j int) int, leafSizes []int) (*Tree, error) {
	depth := len(levels)
	// aggregators counts the nodes of levels 0..depth-2, below those of
	// levels 1..depth-1.
	aggregators, below, width := 0, 0, 1
	for i := 0; i < depth-1; i++ {
		aggregators += width
		next := 0
		for j := 0; j < width; j++ {
			next += fan(i, j)
		}
		below += next
		width = next
	}
	if width != len(leafSizes) {
		return nil, fmt.Errorf("topology: the tree has %d leaves for %d shards", width, len(leafSizes))
	}
	lists := make([][]int, 2*depth+aggregators)
	ints := make([]int, 2*below)
	t := &Tree{
		Levels: levels,
		Spec:   spec,
		Kids:   make([][][]int, depth-1),
		Parent: lists[:depth:depth],
		Sizes:  lists[depth : 2*depth : 2*depth],
	}
	lists = lists[2*depth:]
	// Every level's children are 0..next-1 in order, so each node's list
	// is a window of the level's identity array.
	ids, parents := ints[:below:below], ints[below:]
	width = 1
	for i := 0; i < depth-1; i++ {
		kids := lists[:width:width]
		lists = lists[width:]
		next := 0
		for j := range kids {
			hi := next + fan(i, j)
			for c := next; c < hi; c++ {
				ids[c], parents[c] = c, j
			}
			kids[j] = ids[next:hi:hi]
			next = hi
		}
		t.Kids[i], t.Parent[i+1] = kids, parents[:next:next]
		ids, parents = ids[next:], parents[next:]
		width = next
	}
	t.Sizes[depth-1] = leafSizes
	var err error
	if t.Weights, err = weigh(levels, t.Kids, t.Sizes); err != nil {
		return nil, err
	}
	t.Global = paths(t.Kids, t.Weights, len(leafSizes))
	return t, nil
}

// paths returns the leaves' path products over kids and their weights, root
// first, level by level: a level-1 node's is its weight itself, a
// three-level leaf's Dℓ/D · D(i,ℓ)/Dℓ, and a leaf no cohort holds gets 0.
// The root's children are all of the next level unless the root is the leaf
// parent of a membership epoch.
func paths(kids [][][]int, weights [][][]float64, leaves int) []float64 {
	global := weights[0][0]
	if len(kids) == 1 && len(global) != leaves {
		global = make([]float64, leaves)
		for pos, c := range kids[0][0] {
			global[c] = weights[0][0][pos]
		}
	}
	for i := 1; i < len(kids); i++ {
		width := leaves
		if i+1 < len(kids) {
			width = len(kids[i+1])
		}
		next := make([]float64, width)
		for j, w := range weights[i] {
			for pos, c := range kids[i][j] {
				next[c] = global[j] * w[pos]
			}
		}
		global = next
	}
	return global
}

// WithAggregators returns the tree a run with default aggregation rules
// executes, the one place a level's rule meets them: the leaf-parent level
// takes leafParent and the root root, unless the level's own agg= is robust.
// A depth-2 tree's one aggregating level is both, so it refuses defaults
// that differ, naming the tree, as it refuses a default that fails
// robust.Spec.Validate. Only Levels is new, so neither t nor its spec
// changes, and String, every ID and the attack plan stay t's; with no robust
// default it is t itself.
func (t *Tree) WithAggregators(leafParent, root robust.Spec) (*Tree, error) {
	if err := errors.Join(leafParent.Validate(), root.Validate()); err != nil {
		return nil, fmt.Errorf("topology: a default aggregator of the tree %s: %w", t, err)
	}
	if !leafParent.Robust() && !root.Robust() {
		return t, nil
	}
	if t.LeafParent() == 0 && leafParent != root {
		return nil, fmt.Errorf("topology: the tree %s has one aggregating level, which cannot run both edge=%s and cloud=%s",
			t, leafParent, root)
	}
	levels := append([]Level(nil), t.Levels...)
	for i, lv := range levels[:len(levels)-1] {
		switch {
		case lv.Agg.Robust():
		case i == t.LeafParent():
			levels[i].Agg = leafParent
		case i == 0:
			levels[i].Agg = root
		}
	}
	merged := t.clone()
	merged.Levels = levels
	return merged, nil
}

// WithAttackPlan returns the tree a run under the plan executes, the one place
// a plan meets a tree: a plan failing robust.AttackPlan.Validate is refused,
// and so is an entry naming anything but a training leaf, naming the ID and
// the tree. Neither t nor the plan changes; a nil or empty plan returns t
// itself.
func (t *Tree) WithAttackPlan(plan *robust.AttackPlan) (*Tree, error) {
	if plan.Empty() {
		return t, nil
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	for _, a := range plan.Attacks {
		if lvl, _, ok := t.Lookup(a.Node); !ok || lvl != t.Depth()-1 {
			return nil, fmt.Errorf("topology: the attack plan names %q, not a training leaf of the tree %s", a.Node, t)
		}
	}
	attacked := t.clone()
	attacked.attack = plan
	return attacked, nil
}

// clone returns a copy of t sharing every field but the ID table, which the
// copy mints for itself: the With methods change a field of it and hand it
// out.
func (t *Tree) clone() *Tree {
	return &Tree{Levels: t.Levels, Spec: t.Spec, Kids: t.Kids, Parent: t.Parent, Sizes: t.Sizes,
		Weights: t.Weights, Global: t.Global, attack: t.attack, part: t.part, churn: t.churn, from: t.from}
}

// Flat returns the tree's flat view, the one place the two-level shape the
// paper's flat baselines run is built: the root alone over every training
// leaf at the root's period, leaf j weighted by its global weight Global[j]
// bit for bit (not re-derived from the sample counts). Leaf j keeps its ID,
// its natal coordinates, which key its mini-batch stream, and the attack
// plan; String names the flat view of t, so no snapshot crosses between
// the two. A tree with membership epochs, a robust agg= below the root or a
// gamma= / adapt= / part= attribute (a participant sample) is refused with
// ErrFlat: the flat view has no level to run them at. A two-level tree is
// its own flat view.
func (t *Tree) Flat() (*Tree, error) {
	if t.churn != nil {
		return nil, fmt.Errorf("%w: the flat view of %s does not run its membership epochs", ErrFlat, t)
	}
	for i, lv := range t.Levels {
		if i > 0 && lv.Agg.Robust() {
			return nil, fmt.Errorf("%w: the flat view of %s has no level %q to aggregate with agg=%s", ErrFlat, t, lv.Name, lv.Agg)
		}
		if lv.HasGamma || lv.HasAdapt {
			return nil, fmt.Errorf("%w: the flat view of %s has no momentum level for the gamma/adapt attributes of level %q",
				ErrFlat, t, lv.Name)
		}
		if lv.Part != 0 {
			return nil, fmt.Errorf("%w: the flat view of %s has no leaf-parent level to sample part=%g at", ErrFlat, t, lv.Part)
		}
	}
	if t.Depth() == 2 {
		return t, nil
	}
	// Every run of a flat row builds its flat tree, so like build it takes
	// two allocations: the tree with every list it holds, and one block for
	// the root's children and the leaves' parents.
	n, leaf := t.NumLeaves(), t.Depth()-1
	l := new(struct {
		tree        Tree
		levels      [2]Level
		rootKids    [1][]int
		kids        [1][][]int
		parent      [2][]int
		sizes       [2][]int
		rootWeights [1][]float64
		weights     [1][][]float64
	})
	ints := make([]int, 2*n)
	l.rootKids[0], l.parent[1] = ints[:n:n], ints[n:]
	for j := range l.rootKids[0] {
		l.rootKids[0][j] = j
	}
	l.levels = [2]Level{t.Levels[0], t.Levels[leaf]}
	l.kids[0] = l.rootKids[:]
	l.sizes = [2][]int{t.Sizes[0], t.Sizes[leaf]}
	l.rootWeights[0] = t.Global
	l.weights[0] = l.rootWeights[:]
	flat := &l.tree
	flat.Levels, flat.Spec, flat.Kids, flat.Parent = l.levels[:], t.Spec, l.kids[:], l.parent[:]
	flat.Sizes, flat.Weights, flat.Global = l.sizes[:], l.weights[:], t.Global
	flat.attack, flat.from = t.attack, t
	return flat, nil
}

// Flattened reports whether the tree is another tree's flat view (Flat).
func (t *Tree) Flattened() bool { return t.from != nil }

// AttackPlan returns the run's attack plan, nil for none; like Spec, shared.
func (t *Tree) AttackPlan() *robust.AttackPlan { return t.attack }

// Aggregators names every aggregating level's rule, root first.
func (t *Tree) Aggregators() []string {
	rules := make([]string, len(t.Levels)-1)
	for i, lv := range t.Levels[:len(rules)] {
		rules[i] = lv.Agg.String()
	}
	return rules
}

// Robust reports whether any level aggregates under a robust rule.
func (t *Tree) Robust() bool {
	for _, lv := range t.Levels {
		if lv.Agg.Robust() {
			return true
		}
	}
	return false
}

// Scenario is what a run over the tree adds to its checkpoint fingerprint
// beyond the shape: " agg=<rules>" naming every aggregating level's rule,
// root first, when one of them is robust, " attack=<plan>" under an attack
// plan, and the membership token under churn; "" for a plain static tree.
// Both engines' fingerprints carry it, so a snapshot never resumes under
// another scenario.
func (t *Tree) Scenario() string {
	s := ""
	if t.Robust() {
		s += " agg=" + strings.Join(t.Aggregators(), "/")
	}
	if t.attack != nil {
		s += " attack=" + t.attack.Signature()
	}
	if t.churn != nil {
		s += " " + t.churn.Token
	}
	return s
}

// AlignsWith checks that the tree is one a run of T iterations can execute:
// T lands on a whole number of root periods, and a membership schedule and a
// part= sample (WithParticipation) cover exactly T iterations of the
// leaf-parent rounds.
func (t *Tree) AlignsWith(T int) error {
	if root := t.Levels[0].Tau; T%root != 0 {
		return fmt.Errorf("%w: T=%d is not a multiple of the root period τ=%d", ErrMisaligned, T, root)
	}
	lv := t.Levels[t.LeafParent()]
	if m := t.churn; m != nil && m.K*lv.Tau != T {
		return fmt.Errorf("%w: the membership epochs of %s cover T=%d, not T=%d", ErrMisaligned, t, m.K*lv.Tau, T)
	}
	if lv.Part != 0 && lv.Part != 1 {
		covered := 0
		if t.part != nil {
			covered = t.part.rounds * lv.Tau
		}
		if covered != T {
			return fmt.Errorf("%w: the participant sample of %s covers T=%d, not T=%d", ErrMisaligned, t, covered, T)
		}
	}
	return nil
}

// Weigh returns the child weights of the tree whose children are kids — a
// membership epoch's live cohorts, say — over the leaves' sample counts:
// kids[i][j] lists, ascending, the level-(i+1) children of node j at level
// i. A node whose children cover no samples is an error.
func (t *Tree) Weigh(kids [][][]int) ([][][]float64, error) {
	sizes := make([][]int, len(t.Levels))
	sizes[len(sizes)-1] = t.Sizes[len(sizes)-1]
	return weigh(t.Levels, kids, sizes)
}

// weigh fills sizes[i] for every aggregating level from the leaves'
// sizes[depth-1] up and returns the child weights, drawing every level's
// arrays from three blocks.
func weigh(levels []Level, kids [][][]int, sizes [][]int) ([][][]float64, error) {
	nodes, links := 0, 0
	for _, level := range kids {
		nodes += len(level)
		for _, cs := range level {
			links += len(cs)
		}
	}
	ints := make([]int, nodes)
	lists := make([][]float64, nodes)
	floats := make([]float64, links)
	weights := make([][][]float64, len(kids))
	for i := len(kids) - 1; i >= 0; i-- {
		n := len(kids[i])
		sizes[i], weights[i] = ints[:n:n], lists[:n:n]
		ints, lists = ints[n:], lists[n:]
		for j, cs := range kids[i] {
			for _, c := range cs {
				sizes[i][j] += sizes[i+1][c]
			}
			if sizes[i][j] == 0 {
				return nil, fmt.Errorf("topology: node %d of level %q covers no samples", j, levels[i].Name)
			}
			w := floats[:len(cs):len(cs)]
			floats = floats[len(cs):]
			for pos, c := range cs {
				w[pos] = float64(sizes[i+1][c]) / float64(sizes[i][j])
			}
			weights[i][j] = w
		}
	}
	return weights, nil
}

// String renders the tree's canonical shape, which checkpoint fingerprints
// carry so a snapshot never crosses tree shapes: the spec's canonical form,
// or for a derived tree cloud:tau=τπ/edge*L:tau=τ/worker*C, a ragged edge
// tier listing its per-edge worker counts as [C₀,C₁,…]; a flat view (Flat)
// is flat(<the tree it flattens>).
func (t *Tree) String() string {
	if t.from != nil {
		return "flat(" + t.from.String() + ")"
	}
	if t.Spec != nil {
		return t.Spec.String()
	}
	edges := t.Kids[1]
	workers := strconv.Itoa(len(edges[0]))
	for _, kids := range edges {
		if len(kids) != len(edges[0]) {
			sizes := make([]string, len(edges))
			for l, kids := range edges {
				sizes[l] = strconv.Itoa(len(kids))
			}
			workers = "[" + strings.Join(sizes, ",") + "]"
			break
		}
	}
	return fmt.Sprintf("cloud:tau=%d/edge*%d:tau=%d/worker*%s", t.Levels[0].Tau, len(edges), t.Levels[1].Tau, workers)
}

// Depth returns the number of levels, training tier included.
func (t *Tree) Depth() int { return len(t.Levels) }

// LeafParent returns the index of the level whose children are the leaves.
func (t *Tree) LeafParent() int { return len(t.Levels) - 2 }

// Width returns the number of nodes at level i.
func (t *Tree) Width(i int) int { return len(t.Sizes[i]) }

// NumLeaves returns the training-leaf count.
func (t *Tree) NumLeaves() int { return len(t.Global) }

// Natal returns leaf j's natal coordinates: its parent on the leaf-parent
// level and its position among that node's children. They key the leaf's
// mini-batch stream — on the derived tree they are the worker's (edge,
// worker) indices. A flat view's leaves keep theirs in the tree it
// flattens.
func (t *Tree) Natal(j int) (parent, pos int) {
	if t.from != nil {
		return t.from.Natal(j)
	}
	parent = t.Parent[len(t.Parent)-1][j]
	return parent, j - t.Kids[t.LeafParent()][parent][0]
}

// ID returns the transport ID of node idx at level i, the one name fault,
// churn and attack plans, per-node noise streams, checkpoint files and trace
// events know the node by. A spec's tree names every node "<level>-<index>";
// the derived tree keeps the paper's names: the cloud plain, edge ℓ
// "edge-ℓ", and each worker "worker-ℓ-i" after its natal coordinates.
func (t *Tree) ID(i, idx int) string { return t.table().ids[i][idx] }

// Lookup resolves a transport ID back to its node's level and index; ok is
// false for an ID the tree does not have.
func (t *Tree) Lookup(id string) (level, idx int, ok bool) {
	at, ok := t.table().index[id]
	return at[0], at[1], ok
}

// table mints every node's ID once, all levels' names in one block.
func (t *Tree) table() *idTable {
	n := &t.names
	n.once.Do(func() {
		total := 0
		for i := range t.Levels {
			total += t.Width(i)
		}
		all := make([]string, total)
		n.ids = make([][]string, len(t.Levels))
		n.index = make(map[string][2]int, total)
		for i, lv := range t.Levels {
			n.ids[i], all = all[:t.Width(i):t.Width(i)], all[t.Width(i):]
			for j := range n.ids[i] {
				id := lv.Name + "-" + strconv.Itoa(j)
				switch {
				case t.Spec != nil:
				case i == 0:
					id = lv.Name
				case i == len(t.Levels)-1:
					p, pos := t.Natal(j)
					id = lv.Name + "-" + strconv.Itoa(p) + "-" + strconv.Itoa(pos)
				}
				n.ids[i][j] = id
				n.index[id] = [2]int{i, j}
			}
		}
	})
	return n
}
