package topology

import (
	"errors"
	"math"
	"slices"
	"testing"

	"hieradmo/internal/robust"
)

// FuzzParseTopology asserts the parser's contract on arbitrary input: every
// string yields either a validated topology or a wrapped error — never a
// panic — pathological depth/fan-out is rejected by the bounds before any
// per-node allocation, and accepted specs round-trip through the canonical
// form exactly (Parse(t.String()) reproduces t and re-formats identically,
// the property the checkpoint fingerprint relies on). Every accepted spec
// also resolves into a Tree that holds checkTree's invariants, and so does
// that tree with a run's default aggregation rules merged in, its spec
// untouched; a part= draws a sample of its size inside every cohort; and
// its flat view (Tree.Flat) is a two-level tree keeping every leaf's ID, or
// ErrFlat.
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{
		"cloud:tau=20/region:tau=5,agg=median/edge:tau=1/worker*8",
		"cloud:tau=4/edge*2:tau=2/worker*2",
		"cloud:tau=20/worker*8",
		"root:tau=8,gamma=0.25/mid*3:tau=4,agg=clip(1.5)/leaf*4",
		"cloud:tau=6,agg=cosine(0.5)/edge*2:tau=3,adapt=true/worker*5",
		"cloud:tau=20/edge*2:tau=7/worker*2",
		"a:tau=1/b*4096/c*4096",
		"x*9999999999999999999/y",
		"cloud:tau=4,agg=trimmed(0.2/worker",
		"//:=,*",
		"cloud:tau=4/edge*2:tau=2,part=0.5/worker*2",
		"cloud:tau=8/region*2:tau=4/edge*3:tau=2,adapt=true,part=0.34/worker*3",
		"cloud:tau=4,part=1e-300/worker*2",
		"cloud:tau=4,part=0x1p-1/worker*2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// Bound the raw input so the fuzzer probes structure, not string
		// length (a spec within the depth/fanout/name bounds is short).
		if len(s) > 512 {
			return
		}
		topo, err := Parse(s)
		if err != nil {
			if topo != nil {
				t.Fatalf("Parse(%q) returned both a topology and %v", s, err)
			}
			return
		}
		if got := len(topo.Levels); got < 2 || got > MaxDepth {
			t.Fatalf("Parse(%q) accepted depth %d", s, got)
		}
		canon := topo.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q): canonical form %q does not re-parse: %v", s, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, got)
		}
		if len(again.Levels) != len(topo.Levels) {
			t.Fatalf("round-trip changed depth: %q", canon)
		}
		for i := range topo.Levels {
			if topo.Levels[i] != again.Levels[i] {
				t.Fatalf("round-trip changed level %d of %q: %+v != %+v",
					i, canon, topo.Levels[i], again.Levels[i])
			}
		}
		leaves := 1
		for _, lv := range topo.Levels {
			if leaves *= lv.Fanout; leaves > MaxNodes {
				t.Fatalf("Parse(%q) accepted more than MaxNodes %d leaves", s, MaxNodes)
			}
		}
		sizes := make([]int, leaves)
		for j := range sizes {
			sizes[j] = 1 + (7*j+len(s))%5
		}
		tree, err := topo.Resolve(sizes)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", canon, err)
		}
		if tree.String() != canon || tree.Spec != topo {
			t.Fatalf("Resolve(%q) shaped %q", canon, tree)
		}
		checkTree(t, tree, sizes)
		if got := numNodes(tree); got > MaxNodes {
			t.Fatalf("Parse(%q) accepted %d nodes (> MaxNodes %d)", s, got, MaxNodes)
		}
		// Merging a run's default rules keeps the shape and every ID, wins
		// nowhere over an explicit robust agg=, and leaves the spec as it was.
		median := robust.Spec{Kind: robust.Median}
		merged, err := tree.WithAggregators(median, median)
		if err != nil {
			t.Fatalf("merging equal defaults into %q: %v", canon, err)
		}
		if merged.String() != canon || topo.String() != canon {
			t.Fatalf("merging defaults into %q rendered %q, spec now %q", canon, merged, topo)
		}
		checkTree(t, merged, sizes)
		for i, lv := range topo.Levels {
			if lv != again.Levels[i] {
				t.Fatalf("merging defaults into %q wrote through to level %d: %+v", canon, i, lv)
			}
			if lv.Agg.Robust() && merged.Levels[i].Agg != lv.Agg {
				t.Fatalf("%q: the default replaced level %d's agg=%s", canon, i, lv.Agg)
			}
			for j := 0; j < tree.Width(i); j++ {
				if merged.ID(i, j) != tree.ID(i, j) {
					t.Fatalf("%q: node (%d, %d) is %q merged, %q before", canon, i, j, merged.ID(i, j), tree.ID(i, j))
				}
			}
		}
		// A part= draws a sample of its size, ascending, inside every cohort.
		if lp := tree.LeafParent(); topo.Levels[lp].Part != 0 {
			tau := topo.Levels[lp].Tau
			sampled, err := tree.WithParticipation(topo.Levels[lp].Part, uint64(len(s)), 2*tau)
			if err != nil {
				t.Fatalf("sampling %q: %v", canon, err)
			}
			for k := 1; k <= 2; k++ {
				for j, kids := range tree.Kids[lp] {
					got := sampled.Sample(j, k)
					if topo.Levels[lp].Part == 1 {
						if got != nil {
							t.Fatalf("%q: part=1 samples %v", canon, got)
						}
						continue
					}
					if len(got) != sampleSize(topo.Levels[lp].Part, len(kids)) || !slices.IsSorted(got) ||
						len(got) > 0 && (got[0] < 0 || got[len(got)-1] >= len(kids)) {
						t.Fatalf("%q: round %d node %d samples %v of %d children", canon, k, j, got, len(kids))
					}
				}
			}
		}
		flat, err := tree.Flat()
		if err != nil {
			if flat != nil || !errors.Is(err, ErrFlat) {
				t.Fatalf("flattening %q: %v, %v; want a flat tree or ErrFlat", canon, flat, err)
			}
			return
		}
		if flat.Depth() != 2 || flat.Width(0) != 1 || flat.NumLeaves() != leaves {
			t.Fatalf("%q flattened to depth %d, %d roots, %d leaves", canon, flat.Depth(), flat.Width(0), flat.NumLeaves())
		}
		for j := 0; j < leaves; j++ {
			if id := tree.ID(tree.Depth()-1, j); flat.ID(1, j) != id {
				t.Fatalf("%q: leaf %d is %q flat, %q in the tree", canon, j, flat.ID(1, j), id)
			}
		}
	})
}

// checkTree holds a resolved tree to its contract: children and parents
// invert each other, the leaf parents' children in node order are the
// leaves 0..N−1 each exactly once, Natal and Leaf invert each other, every
// node's size is the sum of its children's and every weight the integer
// ratio of a child's size over its node's, the leaves' global weights
// sum to one, and every node has its own ID, which Lookup inverts.
func checkTree(t *testing.T, tree *Tree, leafSizes []int) {
	t.Helper()
	depth := tree.Depth()
	if len(tree.Kids) != depth-1 || len(tree.Weights) != depth-1 || len(tree.Sizes) != depth || len(tree.Parent) != depth {
		t.Fatalf("%s: %d kid / %d weight / %d size / %d parent levels for depth %d",
			tree, len(tree.Kids), len(tree.Weights), len(tree.Sizes), len(tree.Parent), depth)
	}
	if tree.Width(0) != 1 {
		t.Fatalf("%s: %d roots", tree, tree.Width(0))
	}
	for i, level := range tree.Kids {
		if len(level) != tree.Width(i) || len(tree.Parent[i+1]) != tree.Width(i+1) {
			t.Fatalf("%s level %d: %d kid lists for width %d, %d parents for width %d",
				tree, i, len(level), tree.Width(i), len(tree.Parent[i+1]), tree.Width(i+1))
		}
		next := 0
		for j, kids := range level {
			sum := 0
			for pos, c := range kids {
				if c != next {
					t.Fatalf("%s level %d: node %d's child %d is %d, want %d in order", tree, i, j, pos, c, next)
				}
				next++
				if p := tree.Parent[i+1][c]; p != j {
					t.Fatalf("%s level %d: child %d of node %d names parent %d", tree, i+1, c, j, p)
				}
				sum += tree.Sizes[i+1][c]
				if w, want := tree.Weights[i][j][pos], float64(tree.Sizes[i+1][c])/float64(tree.Sizes[i][j]); w != want {
					t.Fatalf("%s level %d node %d child %d: weight %v, want %v", tree, i, j, pos, w, want)
				}
			}
			if sum != tree.Sizes[i][j] {
				t.Fatalf("%s level %d node %d: size %d, children sum to %d", tree, i, j, tree.Sizes[i][j], sum)
			}
		}
		if next != tree.Width(i+1) {
			t.Fatalf("%s level %d: children cover %d of %d nodes", tree, i, next, tree.Width(i+1))
		}
	}
	n := tree.NumLeaves()
	if n != len(leafSizes) {
		t.Fatalf("%s: %d leaves for %d sizes", tree, n, len(leafSizes))
	}
	var global float64
	for j := 0; j < n; j++ {
		if tree.Sizes[depth-1][j] != leafSizes[j] {
			t.Fatalf("%s: leaf %d size %d, want %d", tree, j, tree.Sizes[depth-1][j], leafSizes[j])
		}
		p, pos := tree.Natal(j)
		if got := tree.Kids[tree.LeafParent()][p][pos]; got != j {
			t.Fatalf("%s: Natal(%d) = (%d, %d), the child there is %d", tree, j, p, pos, got)
		}
		global += tree.Global[j]
	}
	if math.Abs(global-1) > 1e-9 {
		t.Fatalf("%s: global weights sum to %v", tree, global)
	}
	seen := make(map[string]bool)
	for i := 0; i < depth; i++ {
		for j := 0; j < tree.Width(i); j++ {
			id := tree.ID(i, j)
			if seen[id] {
				t.Fatalf("%s: two nodes are named %q", tree, id)
			}
			seen[id] = true
			if li, lj, ok := tree.Lookup(id); !ok || li != i || lj != j {
				t.Fatalf("%s: Lookup(%q) = (%d, %d, %v), want (%d, %d)", tree, id, li, lj, ok, i, j)
			}
		}
	}
}
