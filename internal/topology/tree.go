package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// Tree is a resolved aggregation tree: the shape both execution engines run.
// It is the one place that lays out the nodes of every level, orders the
// training leaves, keys each leaf by its natal (parent, position)
// coordinates, and weighs every node's children by their integer subtree
// sample counts. The in-process simulation (internal/core) builds its levels
// from it, and the distributed runtime (internal/cluster) adds transport IDs,
// per-level rules and membership epochs on top, so the two engines cannot
// disagree on the shape.
//
// A Tree is pure derived data, built once per run and read-only afterwards.
type Tree struct {
	// Levels is the chain of tiers, root first: name, sync period τℓ and
	// the explicit attributes of a spec. Fanout is meaningful only when Spec
	// is set; a derived tree may be ragged.
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
	// Path products root first, level by level: a level-1 node's is its
	// weight itself, and a three-level leaf's is Dℓ/D · D(i,ℓ)/Dℓ.
	t.Global = t.Weights[0][0]
	for i := 1; i < depth-1; i++ {
		next := make([]float64, len(t.Parent[i+1]))
		for j, w := range t.Weights[i] {
			for pos, c := range t.Kids[i][j] {
				next[c] = t.Global[j] * w[pos]
			}
		}
		t.Global = next
	}
	return t, nil
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
// tier listing its per-edge worker counts as [C₀,C₁,…].
func (t *Tree) String() string {
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
// mini-batch stream and its membership identity — on the derived tree they
// are the worker's (edge, worker) indices.
func (t *Tree) Natal(j int) (parent, pos int) {
	parent = t.Parent[len(t.Parent)-1][j]
	return parent, j - t.Kids[t.LeafParent()][parent][0]
}

// Leaf inverts Natal.
func (t *Tree) Leaf(parent, pos int) int {
	return t.Kids[t.LeafParent()][parent][0] + pos
}
