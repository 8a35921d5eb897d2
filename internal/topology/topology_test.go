package topology

import (
	"errors"
	"testing"

	"hieradmo/internal/robust"
)

func mustParse(t *testing.T, s string) *Topology {
	t.Helper()
	topo, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return topo
}

func TestParseIssueExample(t *testing.T) {
	topo := mustParse(t, "cloud:tau=20/region:tau=5,agg=median/edge:tau=1/worker*8")
	if got := len(topo.Levels); got != 4 {
		t.Fatalf("depth = %d, want 4", got)
	}
	want := []Level{
		{Name: "cloud", Tau: 20, Fanout: 1},
		{Name: "region", Tau: 5, Fanout: 1, Agg: robust.Spec{Kind: robust.Median}},
		{Name: "edge", Tau: 1, Fanout: 1},
		{Name: "worker", Tau: 1, Fanout: 8},
	}
	for i, lv := range topo.Levels {
		if lv != want[i] {
			t.Errorf("level %d = %+v, want %+v", i, lv, want[i])
		}
	}
	tree, err := topo.Resolve([]int{1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.NumLeaves(); got != 8 {
		t.Errorf("NumLeaves = %d, want 8", got)
	}
	if got := numNodes(tree); got != 11 {
		t.Errorf("nodes = %d, want 11", got)
	}
	if got := tree.Levels[0].Tau / tree.Levels[1].Tau; got != 4 {
		t.Errorf("region rounds per cloud round = %d, want 4", got)
	}
}

// numNodes counts the tree's nodes over every level.
func numNodes(tree *Tree) int {
	n := 0
	for i := range tree.Levels {
		n += tree.Width(i)
	}
	return n
}

func TestParseRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"cloud:tau=4/edge*2:tau=2/worker*2",
		"cloud:tau=20/worker*8",
		"cloud:tau=20/region*2:tau=10,agg=median/edge*2:tau=5,agg=trimmed(0.2)/worker*2",
		"root:tau=8,gamma=0.25/mid*3:tau=4,agg=clip(1.5)/leaf*4",
		"cloud:tau=6,agg=cosine(0.5)/edge*2:tau=3,adapt=true/worker*5",
		"a:tau=2,gamma=0/b*7",
		"cloud:tau=4/edge*2:tau=2,part=0.5/worker*2",
		"cloud:tau=8/region*2:tau=4/edge*2:tau=2,adapt=false,part=0.25/worker*4",
		"cloud:tau=4,part=1/worker*3",
	} {
		topo := mustParse(t, spec)
		out := topo.String()
		again := mustParse(t, out)
		if again.String() != out {
			t.Errorf("spec %q: format %q re-formats as %q", spec, out, again.String())
		}
		if len(again.Levels) != len(topo.Levels) {
			t.Fatalf("spec %q: depth changed on round-trip", spec)
		}
		for i := range topo.Levels {
			if topo.Levels[i] != again.Levels[i] {
				t.Errorf("spec %q level %d: %+v != %+v", spec, i, topo.Levels[i], again.Levels[i])
			}
		}
	}
}

// TestParseTauTiling pins the τℓ alignment rule: child sync rounds must tile
// parent periods, and misaligned specs fail with the typed ErrMisaligned.
func TestParseTauTiling(t *testing.T) {
	cases := []struct {
		spec string
		err  error
	}{
		{"cloud:tau=20/edge*2:tau=5/worker*2", nil},
		{"cloud:tau=6/edge*2:tau=6/worker*2", nil}, // equal periods tile (π=1)
		{"cloud:tau=20/edge*2:tau=7/worker*2", ErrMisaligned},
		{"cloud:tau=5/edge*2:tau=10/worker*2", ErrMisaligned}, // child slower than parent
		{"cloud:tau=8/region*2:tau=4/edge*2:tau=3/worker*2", ErrMisaligned},
		{"cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2", nil},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if tc.err == nil && err != nil {
			t.Errorf("Parse(%q) = %v, want ok", tc.spec, err)
		}
		if tc.err != nil && !errors.Is(err, tc.err) {
			t.Errorf("Parse(%q) = %v, want %v", tc.spec, err, tc.err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		err  error
	}{
		{"", ErrSyntax},
		{"cloud:tau=4", ErrSyntax},            // single level
		{"cloud*2:tau=4/worker*2", ErrSyntax}, // root fanout
		{"cloud:tau=4/cloud*2", ErrSyntax},    // duplicate name
		{"Cloud:tau=4/worker*2", ErrSyntax},   // uppercase name
		{"9cloud:tau=4/worker*2", ErrSyntax},  // leading digit
		{"clo-ud:tau=4/worker*2", ErrSyntax},  // dash collides with node IDs
		{"cloud:tau=4/worker*0", ErrSyntax},
		{"cloud:tau=4/worker*-3", ErrSyntax},
		{"cloud:tau=4/worker*2x", ErrSyntax},
		{"cloud:tau=0/worker*2", ErrAttr},
		{"cloud:tau=4,tau=4/worker*2", ErrAttr}, // repeated attribute
		{"cloud:tau=4,bogus=1/worker*2", ErrAttr},
		{"cloud:tau=4,gamma=1.5/worker*2", ErrAttr},
		{"cloud:tau=4,gamma=-0.1/worker*2", ErrAttr},
		{"cloud:tau=4,adapt=maybe/worker*2", ErrAttr},
		{"cloud:tau=4,agg=bogus/worker*2", ErrAttr},
		{"cloud:tau=4,agg=trimmed(0.9)/worker*2", ErrAttr},
		{"cloud:tau=4,agg=median(0.5)/worker*2", ErrAttr},
		{"cloud:tau=4,agg=clip(1.0/worker*2", ErrAttr},                           // unbalanced parens
		{"cloud:tau=4/worker*2:tau=2", ErrAttr},                                  // leaf tau
		{"cloud:tau=4/worker*2:agg=median", ErrAttr},                             // leaf agg
		{"cloud:tau=4/worker*2:gamma=0.5", ErrAttr},                              // leaf gamma
		{"cloud:tau=8/region*2:tau=4,adapt=true/edge*2:tau=2/worker*2", ErrAttr}, // adapt off leaf-parent
		{"cloud:tau=8,part=0.5/edge*2:tau=2/worker*2", ErrAttr},                  // part above the leaf parent
		{"cloud:tau=4/worker*2:part=0.5", ErrAttr},                               // part at the leaf level
		{"cloud:tau=4,part=0/worker*2", ErrAttr},
		{"cloud:tau=4,part=-0.5/worker*2", ErrAttr},
		{"cloud:tau=4,part=1.5/worker*2", ErrAttr},
		{"cloud:tau=4,part=NaN/worker*2", ErrAttr},
		{"cloud:tau=4,part=half/worker*2", ErrAttr},
		{"a:tau=1/b/c/d/e/f/g/h/i*2", ErrBounds},              // depth > MaxDepth
		{"cloud:tau=4/worker*100000", ErrBounds},              // fanout > MaxFanout
		{"cloud:tau=4/mid*4096:tau=2/worker*4096", ErrBounds}, // nodes > MaxNodes
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec)
		if !errors.Is(err, tc.err) {
			t.Errorf("Parse(%q) = %v, want %v", tc.spec, err, tc.err)
		}
	}
}

func TestAlignsWith(t *testing.T) {
	tree, err := mustParse(t, "cloud:tau=6/worker*2").Resolve([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.AlignsWith(24); err != nil {
		t.Errorf("AlignsWith(24): %v", err)
	}
	if err := tree.AlignsWith(20); !errors.Is(err, ErrMisaligned) {
		t.Errorf("AlignsWith(20) = %v, want ErrMisaligned", err)
	}
}

func TestWidths(t *testing.T) {
	sizes := make([]int, 24)
	for j := range sizes {
		sizes[j] = 1
	}
	tree, err := mustParse(t, "cloud:tau=8/region*3:tau=4/edge*2:tau=2/worker*4").Resolve(sizes)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 6, 24}
	for i, w := range want {
		if got := tree.Width(i); got != w {
			t.Errorf("Width(%d) = %d, want %d", i, got, w)
		}
	}
	if got := numNodes(tree); got != 34 {
		t.Errorf("nodes = %d, want 34", got)
	}
	if got := tree.LeafParent(); got != 2 {
		t.Errorf("LeafParent = %d, want 2", got)
	}
}
