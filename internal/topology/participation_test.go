package topology

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"hieradmo/internal/membership"
	"hieradmo/internal/rng"
)

// TestTreeWithParticipation: the sample is a pure function of the seed —
// one seed draws one sample, another seed another — of the right size in
// every round, ascending and inside every cohort; the fraction lands on
// the leaf-parent level and nowhere else, the shape and its String stay t's,
// and the sample covers exactly the horizon it was drawn for.
func TestTreeWithParticipation(t *testing.T) {
	tree, err := Derive(2, 2, []int{4, 3}, []int{1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	const T = 12
	a, err := tree.WithParticipation(0.5, 67, T)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tree.WithParticipation(0.5, 67, T)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tree.WithParticipation(0.5, 68, T)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != tree.String() || a.Participation() != 0.5 || tree.Participation() != 1 {
		t.Fatalf("sampled %s at %v from %s at %v", a, a.Participation(), tree, tree.Participation())
	}
	if a.Levels[1].Part != 0.5 || tree.Levels[1].Part != 0 || a.Levels[0].Part != 0 {
		t.Errorf("Part per level sampled %v, before %v", []float64{a.Levels[0].Part, a.Levels[1].Part}, tree.Levels[1].Part)
	}
	differs := false
	for k := 1; k <= T/2; k++ {
		for l, kids := range tree.Kids[1] {
			cohort := a.Sample(l, k)
			// round(0.5·n), at least 1: 4→2, 3→2.
			if want := int(0.5*float64(len(kids)) + 0.5); len(cohort) != want {
				t.Errorf("round %d edge %d samples %d, want %d", k, l, len(cohort), want)
			}
			for j, i := range cohort {
				if i < 0 || i >= len(kids) || j > 0 && i <= cohort[j-1] {
					t.Errorf("round %d edge %d sample %v is not ascending inside [0,%d)", k, l, cohort, len(kids))
				}
			}
			if !slices.Equal(b.Sample(l, k), cohort) {
				t.Fatalf("seed 67 drew %v and %v at round %d edge %d", cohort, b.Sample(l, k), k, l)
			}
			differs = differs || !slices.Equal(c.Sample(l, k), cohort)
		}
	}
	if !differs {
		t.Error("seeds 67 and 68 drew identical samples")
	}
	if tree.Sample(0, 1) != nil {
		t.Errorf("the unsampled tree samples %v", tree.Sample(0, 1))
	}
	if err := a.AlignsWith(T); err != nil {
		t.Errorf("AlignsWith(%d) on the sample of T=%d: %v", T, T, err)
	}
	if err := a.AlignsWith(2 * T); !errors.Is(err, ErrMisaligned) {
		t.Errorf("AlignsWith(%d) on the sample of T=%d = %v, want ErrMisaligned", 2*T, T, err)
	}
	// Full participation draws nothing; a sampled tree is not sampled again.
	if got, err := tree.WithParticipation(1, 67, T); got != tree || err != nil {
		t.Errorf("WithParticipation(1) = %v, %v, want the tree itself", got, err)
	}
	if got, err := a.WithParticipation(1, 67, T); got != a || err != nil {
		t.Errorf("WithParticipation(1) of a sampled tree = %v, %v, want it itself", got, err)
	}
	if _, err := a.WithParticipation(0.5, 67, T); !errors.Is(err, ErrAttr) {
		t.Errorf("resampling = %v, want ErrAttr", err)
	}
}

// TestParticipationRefusals: the option and part= share one validation, and
// a sample has no flat view and does not run with membership epochs, in
// either order.
func TestParticipationRefusals(t *testing.T) {
	tree, err := Derive(2, 2, []int{2, 2}, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		if got, err := tree.WithParticipation(bad, 1, 16); got != nil || !errors.Is(err, ErrAttr) {
			t.Errorf("WithParticipation(%v) = %v, %v, want ErrAttr", bad, got, err)
		}
	}
	sampled, err := tree.WithParticipation(0.5, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if flat, err := sampled.Flat(); flat != nil || !errors.Is(err, ErrFlat) {
		t.Errorf("Flat() of a sampled tree = %v, %v, want ErrFlat", flat, err)
	}
	spec, err := mustParse(t, "cloud:tau=4,part=0.5/worker*2").Resolve([]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if flat, err := spec.Flat(); flat != nil || !errors.Is(err, ErrFlat) {
		t.Errorf("Flat() of a depth-2 part= tree = %v, %v, want ErrFlat", flat, err)
	}
	stats := make([]membership.WorkerStat, 4)
	for j := range stats {
		stats[j] = membership.WorkerStat{Weight: 1, Hist: []float64{1}}
	}
	plan := membership.Plan{Events: []membership.Event{{Round: 2, Action: membership.ActionLeave, Worker: "worker-0-1"}}}
	if got, err := sampled.WithMembership(plan, stats, 16, 0, membership.MigrateZero); got != nil || !errors.Is(err, ErrAttr) {
		t.Errorf("membership on a sampled tree = %v, %v, want ErrAttr", got, err)
	}
	churned, err := tree.WithMembership(plan, stats, 16, 0, membership.MigrateZero)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := churned.WithParticipation(0.5, 1, 16); got != nil || !errors.Is(err, ErrAttr) {
		t.Errorf("a sample on a churned tree = %v, %v, want ErrAttr", got, err)
	}
	// A part= the sample was never drawn for is refused at the gate.
	if err := spec.AlignsWith(16); !errors.Is(err, ErrMisaligned) {
		t.Errorf("AlignsWith on an undrawn part= = %v, want ErrMisaligned", err)
	}
}

// TestTreeSampleAllocs: reading a round's sample allocates nothing.
func TestTreeSampleAllocs(t *testing.T) {
	tree, err := Derive(2, 2, []int{4, 3}, []int{1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if tree, err = tree.WithParticipation(0.5, 3, 40); err != nil {
		t.Fatal(err)
	}
	var n int
	if allocs := testing.AllocsPerRun(100, func() {
		for k := 1; k <= 20; k++ {
			n += len(tree.Sample(0, k)) + len(tree.Sample(1, k))
		}
	}); allocs != 0 {
		t.Errorf("Sample allocates %v times per 40 reads", allocs)
	}
}

// TestSampleParticipants: the sampler makes exactly rng.Perm's draws into a
// reused buffer, keeps its sorted prefix, and samples at least one.
func TestSampleParticipants(t *testing.T) {
	r, perms := rng.New(9), rng.New(9)
	buf := make([]int, 8)
	for trial := 0; trial < 50; trial++ {
		want := perms.Perm(8)[:4]
		sort.Ints(want)
		idx := sampleParticipants(r, 0.5, buf)
		if fmt.Sprint(idx) != fmt.Sprint(want) {
			t.Fatalf("trial %d: sampled %v, Perm's sorted prefix is %v", trial, idx, want)
		}
	}
	if got := sampleParticipants(r, 0.01, make([]int, 4)); len(got) != 1 {
		t.Errorf("minimum participation %d, want 1", len(got))
	}
	if got := sampleParticipants(r, 0.99, make([]int, 3)); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("participation 0.99 of 3 sampled %v, want everyone", got)
	}
}
