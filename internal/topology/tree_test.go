package topology

import "testing"

// TestDeriveIsTheConfigGrouping: the derived tree is the cloud / edge /
// worker grouping itself — its canonical shape lists ragged cohorts, leaf j
// keeps its (edge, worker) coordinates, and a leaf's global weight is the
// product Dℓ/D · D(i,ℓ)/Dℓ, bit for bit.
func TestDeriveIsTheConfigGrouping(t *testing.T) {
	for _, tc := range []struct {
		cohorts []int
		sizes   []int
		shape   string
	}{
		{[]int{2, 2}, []int{30, 50, 20, 70}, "cloud:tau=6/edge*2:tau=2/worker*2"},
		{[]int{2, 3}, []int{30, 50, 20, 70, 11}, "cloud:tau=6/edge*2:tau=2/worker*[2,3]"},
		{[]int{1}, []int{7}, "cloud:tau=6/edge*1:tau=2/worker*1"},
	} {
		tree, err := Derive(2, 3, tc.cohorts, tc.sizes)
		if err != nil {
			t.Fatal(err)
		}
		if tree.String() != tc.shape || tree.Spec != nil {
			t.Errorf("Derive(%v) shaped %q (spec %v), want %q", tc.cohorts, tree, tree.Spec, tc.shape)
		}
		checkTree(t, tree, tc.sizes)
		total := 0
		for _, n := range tc.sizes {
			total += n
		}
		j := 0
		for l, c := range tc.cohorts {
			edge := 0
			for i := 0; i < c; i++ {
				edge += tc.sizes[j+i]
			}
			for i := 0; i < c; i++ {
				if p, pos := tree.Natal(j); p != l || pos != i {
					t.Errorf("%s: leaf %d natal (%d,%d), want (%d,%d)", tc.shape, j, p, pos, l, i)
				}
				want := float64(edge) / float64(total) * (float64(tc.sizes[j]) / float64(edge))
				if tree.Global[j] != want {
					t.Errorf("%s: leaf %d global weight %v, want %v", tc.shape, j, tree.Global[j], want)
				}
				j++
			}
		}
	}
}

// TestResolveRegroupsLeaves: a spec groups the same leaves under its own
// fanout, so natal coordinates follow the spec, not the configuration.
func TestResolveRegroupsLeaves(t *testing.T) {
	topo, err := Parse("cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2")
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{3, 1, 4, 1, 5, 9, 2, 6}
	tree, err := topo.Resolve(sizes)
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, tree, sizes)
	if p, pos := tree.Natal(5); p != 2 || pos != 1 {
		t.Errorf("leaf 5 natal (%d,%d), want (2,1)", p, pos)
	}
	if got := tree.Sizes[1]; got[0] != 9 || got[1] != 22 {
		t.Errorf("region sizes %v, want [9 22]", got)
	}
	if _, err := topo.Resolve(sizes[:7]); err == nil {
		t.Error("seven shards for eight leaves accepted")
	}
}

// TestWeighRefusesEmptyNode: a membership epoch whose cohort leaves a node
// with no samples has no weights to give it.
func TestWeighRefusesEmptyNode(t *testing.T) {
	tree, err := Derive(1, 2, []int{2, 2}, []int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	kids := append([][][]int(nil), tree.Kids...)
	kids[1] = [][]int{{0, 1, 2, 3}, {}}
	if _, err := tree.Weigh(kids); err == nil {
		t.Error("an edge with an empty cohort was weighed")
	}
}
