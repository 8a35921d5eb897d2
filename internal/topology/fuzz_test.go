package topology

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseTopology asserts the parser's contract on arbitrary input: every
// string yields either a validated topology or a wrapped error — never a
// panic — pathological depth/fan-out is rejected by the bounds before any
// per-node allocation, and accepted specs round-trip through the canonical
// form exactly (Parse(t.String()) reproduces t and re-formats identically,
// the property the checkpoint fingerprint relies on). Every accepted spec
// also resolves into a Tree that holds checkTree's invariants.
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
		if got := topo.NumNodes(); got > MaxNodes {
			t.Fatalf("Parse(%q) accepted %d nodes (> MaxNodes %d)", s, got, MaxNodes)
		}
		if got := topo.Depth(); got < 2 || got > MaxDepth {
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
		// Node IDs must resolve back to their coordinates for every level
		// (spot-check the first and last node per level; widths are bounded).
		for i := range topo.Levels {
			for _, idx := range []int{0, topo.Width(i) - 1} {
				id := topo.NodeID(i, idx)
				if strings.Count(id, "-") < 1 {
					t.Fatalf("node id %q has no index separator", id)
				}
				gi, gidx, err := topo.ParseNodeID(id)
				if err != nil || gi != i || gidx != idx {
					t.Fatalf("ParseNodeID(%q) = (%d,%d,%v), want (%d,%d)", id, gi, gidx, err, i, idx)
				}
			}
		}
		sizes := make([]int, topo.NumLeaves())
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
	})
}

// checkTree holds a resolved tree to its contract: children and parents
// invert each other, the leaf parents' children in node order are the
// leaves 0..N−1 each exactly once, Natal and Leaf invert each other, every
// node's size is the sum of its children's and every weight the integer
// ratio of a child's size over its node's, and the leaves' global weights
// sum to one.
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
		if got := tree.Leaf(p, pos); got != j {
			t.Fatalf("%s: Leaf(Natal(%d)) = %d", tree, j, got)
		}
		global += tree.Global[j]
	}
	if math.Abs(global-1) > 1e-9 {
		t.Fatalf("%s: global weights sum to %v", tree, global)
	}
}
