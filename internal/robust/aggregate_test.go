package robust

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hieradmo/internal/tensor"
)

func agg(t *testing.T, s Spec) Aggregator {
	t.Helper()
	a, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// one-component cohort helper
func cohort(rows ...[]float64) [][]tensor.Vector {
	return [][]tensor.Vector{vecs(rows...)}
}

func uniform(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

func TestMeanMatchesWeightedSum(t *testing.T) {
	a := agg(t, Spec{Kind: Mean})
	dst := vecs([]float64{0, 0})
	prev := vecs([]float64{9, 9})
	comps := cohort([]float64{1, 2}, []float64{3, 6})
	weights := []float64{0.25, 0.75}
	st, err := a.Aggregate(dst, prev, weights, comps)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.NewVector(2)
	if err := tensor.WeightedSum(want, weights, comps[0]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual([]float64(dst[0]), []float64(want)) {
		t.Fatalf("mean %v, want %v", dst[0], want)
	}
	if st.Participants != 2 || len(st.Rejected) != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMedianOddEvenAndNonFinite(t *testing.T) {
	a := agg(t, Spec{Kind: Median})
	dst := vecs([]float64{0, 0})
	prev := vecs([]float64{0, 0})

	// Odd cohort: exact middle per coordinate.
	st, err := a.Aggregate(dst, prev, uniform(3), cohort(
		[]float64{1, 100}, []float64{2, -5}, []float64{3, 7}))
	if err != nil {
		t.Fatal(err)
	}
	if dst[0][0] != 2 || dst[0][1] != 7 {
		t.Fatalf("odd median %v", dst[0])
	}
	if st.Participants != 3 || len(st.Rejected) != 0 {
		t.Fatalf("stats %+v", st)
	}

	// Even cohort: mean of the two middle values.
	if _, err := a.Aggregate(dst, prev, uniform(4), cohort(
		[]float64{1, 0}, []float64{2, 0}, []float64{10, 0}, []float64{3, 0})); err != nil {
		t.Fatal(err)
	}
	if dst[0][0] != 2.5 {
		t.Fatalf("even median %v", dst[0])
	}

	// A NaN reporter is rejected wholesale, not propagated.
	st, err = a.Aggregate(dst, prev, uniform(3), cohort(
		[]float64{1, 1}, []float64{math.NaN(), 2}, []float64{3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Rejected, []int{1}) {
		t.Fatalf("rejected %v", st.Rejected)
	}
	if dst[0][0] != 2 || dst[0][1] != 2 {
		t.Fatalf("median after rejection %v", dst[0])
	}

	// All-NaN cohort errors instead of emitting garbage.
	if _, err := a.Aggregate(dst, prev, uniform(1), cohort([]float64{math.Inf(1), 0})); err == nil {
		t.Fatal("all-non-finite cohort accepted")
	}
}

func TestMedianIgnoresWeights(t *testing.T) {
	a := agg(t, Spec{Kind: Median})
	dst := vecs([]float64{0})
	prev := vecs([]float64{0})
	comps := cohort([]float64{1}, []float64{2}, []float64{900})
	if _, err := a.Aggregate(dst, prev, []float64{0.98, 0.01, 0.01}, comps); err != nil {
		t.Fatal(err)
	}
	if dst[0][0] != 2 {
		t.Fatalf("median %v should ignore weights", dst[0])
	}
}

func TestTrimmedMean(t *testing.T) {
	a := agg(t, Spec{Kind: Trimmed, Trim: 0.25})
	dst := vecs([]float64{0})
	prev := vecs([]float64{0})
	// n=4, g=1: drop min and max, average the middle two.
	if _, err := a.Aggregate(dst, prev, uniform(4), cohort(
		[]float64{-100}, []float64{2}, []float64{4}, []float64{100})); err != nil {
		t.Fatal(err)
	}
	if dst[0][0] != 3 {
		t.Fatalf("trimmed mean %v", dst[0])
	}

	// Trim never eats the whole cohort: single finite survivor wins.
	st, err := a.Aggregate(dst, prev, uniform(2), cohort(
		[]float64{math.Inf(-1)}, []float64{7}))
	if err != nil {
		t.Fatal(err)
	}
	if dst[0][0] != 7 || !reflect.DeepEqual(st.Rejected, []int{0}) {
		t.Fatalf("single survivor: dst=%v stats=%+v", dst[0], st)
	}

	// trim=0 degrades to the unweighted mean.
	a0 := agg(t, Spec{Kind: Trimmed})
	if _, err := a0.Aggregate(dst, prev, uniform(2), cohort([]float64{1}, []float64{3})); err != nil {
		t.Fatal(err)
	}
	if dst[0][0] != 2 {
		t.Fatalf("trim=0 mean %v", dst[0])
	}
}

func TestClipBoundsDeviations(t *testing.T) {
	a := agg(t, Spec{Kind: Clip, Clip: 1})
	dst := vecs([]float64{0}, []float64{0})
	prev := vecs([]float64{1}, []float64{2})
	// Reporter 0 honest (deviation 0.5), reporter 1 poisoned (deviation
	// -101 on component 0).
	comps := [][]tensor.Vector{
		vecs([]float64{1.5}, []float64{-100}),
		vecs([]float64{2.5}, []float64{2}),
	}
	st, err := a.Aggregate(dst, prev, []float64{0.5, 0.5}, comps)
	if err != nil {
		t.Fatal(err)
	}
	// Component 0: 1 + 0.5*0.5 + 0.5*(-1) = 0.75 (poisoned deviation
	// clipped from 101 to 1).
	if math.Abs(dst[0][0]-0.75) > 1e-12 {
		t.Fatalf("clip dst[0] = %v", dst[0])
	}
	// Component 1: reporter 1's deviation is 0 there, nothing clipped:
	// 2 + 0.5*0.5 + 0 = 2.25.
	if math.Abs(dst[1][0]-2.25) > 1e-12 {
		t.Fatalf("clip dst[1] = %v", dst[1])
	}
	if !reflect.DeepEqual(st.Clipped, []int{1}) || st.MaxNorm != 101 {
		t.Fatalf("stats %+v", st)
	}

	// Within the bound, clip is exactly the weighted mean.
	small := [][]tensor.Vector{vecs([]float64{1.2}, []float64{0.8})}
	dst1 := vecs([]float64{0})
	prev1 := vecs([]float64{1})
	if _, err := a.Aggregate(dst1, prev1, []float64{0.5, 0.5}, small); err != nil {
		t.Fatal(err)
	}
	if math.Abs(dst1[0][0]-1.0) > 1e-12 {
		t.Fatalf("unclipped mean %v", dst1[0])
	}
}

func TestClipRejectsNonFiniteAndRenormalizes(t *testing.T) {
	a := agg(t, Spec{Kind: Clip, Clip: 100})
	dst := vecs([]float64{0})
	prev := vecs([]float64{0})
	st, err := a.Aggregate(dst, prev, []float64{0.5, 0.25, 0.25}, cohort(
		[]float64{math.NaN()}, []float64{2}, []float64{4}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Rejected, []int{0}) {
		t.Fatalf("rejected %v", st.Rejected)
	}
	// Survivor weights renormalize to 0.5/0.5: 0 + 0.5*2 + 0.5*4 = 3.
	if math.Abs(dst[0][0]-3) > 1e-12 {
		t.Fatalf("renormalized clip mean %v", dst[0])
	}
}

func TestCosineFiltersDirectionOutliers(t *testing.T) {
	a := agg(t, Spec{Kind: Cosine})
	dst := vecs([]float64{0, 0})
	prev := vecs([]float64{1, 1})
	// Three honest reporters move toward (+1,+1); the attacker
	// sign-flips, pointing at (-3,-3) from prev.
	comps := cohort(
		[]float64{3, 3}, []float64{3.2, 2.8}, []float64{2.9, 3.1}, []float64{-2, -2})
	st, err := a.Aggregate(dst, prev, uniform(4), comps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Rejected, []int{3}) {
		t.Fatalf("rejected %v", st.Rejected)
	}
	want := []float64{(3 + 3.2 + 2.9) / 3, (3 + 2.8 + 3.1) / 3}
	for d := range want {
		if math.Abs(dst[0][d]-want[d]) > 1e-12 {
			t.Fatalf("cosine mean %v, want %v", dst[0], want)
		}
	}
}

func TestCosineFallbackWhenAllRejected(t *testing.T) {
	// Two reporters pulling in exactly opposite directions: the mean
	// deviation is zero, every cosine is 0, and a threshold above 0
	// rejects everyone. The filter must fall back to all finite
	// reporters, not error.
	a := agg(t, Spec{Kind: Cosine, CosMin: 0.5})
	dst := vecs([]float64{0})
	prev := vecs([]float64{0})
	st, err := a.Aggregate(dst, prev, uniform(2), cohort([]float64{1}, []float64{-1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Rejected) != 0 {
		t.Fatalf("fallback should clear rejections, got %v", st.Rejected)
	}
	if dst[0][0] != 0 {
		t.Fatalf("fallback mean %v", dst[0])
	}
}

func TestAggregateShapeErrors(t *testing.T) {
	for _, k := range []Kind{Mean, Median, Trimmed, Clip, Cosine} {
		a := agg(t, Spec{Kind: k, Clip: 1})
		// Mismatched report dimension.
		_, err := a.Aggregate(vecs([]float64{0, 0}), vecs([]float64{0, 0}),
			uniform(2), cohort([]float64{1, 2}, []float64{3}))
		if err == nil {
			t.Errorf("%v accepted mismatched dims", k)
		}
		// Empty cohort.
		_, err = a.Aggregate(vecs([]float64{0}), vecs([]float64{0}), nil, [][]tensor.Vector{{}})
		if err == nil {
			t.Errorf("%v accepted empty cohort", k)
		}
		// Component count mismatch.
		_, err = a.Aggregate(vecs([]float64{0}), vecs([]float64{0}, []float64{0}),
			uniform(1), cohort([]float64{1}))
		if err == nil {
			t.Errorf("%v accepted component mismatch", k)
		}
	}
}

func TestAggregateSteadyStateAllocs(t *testing.T) {
	// Robust rules must be slab-friendly: after warm-up, Aggregate
	// allocates nothing.
	n, dim := 8, 64
	weights := uniform(n)
	comps := make([][]tensor.Vector, 2)
	for c := range comps {
		comps[c] = make([]tensor.Vector, n)
		for j := range comps[c] {
			v := tensor.NewVector(dim)
			for d := range v {
				v[d] = float64(c+1) * float64(j*dim+d) * 0.01
			}
			comps[c][j] = v
		}
	}
	dst := []tensor.Vector{tensor.NewVector(dim), tensor.NewVector(dim)}
	prev := []tensor.Vector{tensor.NewVector(dim), tensor.NewVector(dim)}
	for _, s := range []Spec{{Kind: Median}, {Kind: Trimmed, Trim: 0.25}, {Kind: Clip, Clip: 1}, {Kind: Cosine}} {
		a := agg(t, s)
		if _, err := a.Aggregate(dst, prev, weights, comps); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := a.Aggregate(dst, prev, weights, comps); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 0 {
			t.Errorf("%s: %v allocs per steady-state Aggregate, want 0", a.Name(), avg)
		}
	}
}

func TestSpecStringAndParse(t *testing.T) {
	cases := map[string]Spec{
		"mean":         {Kind: Mean},
		"median":       {Kind: Median},
		"trimmed(0.2)": {Kind: Trimmed, Trim: 0.2},
		"clip(1.5)":    {Kind: Clip, Clip: 1.5},
		"cosine(0)":    {Kind: Cosine},
	}
	for want, s := range cases {
		if s.String() != want {
			t.Errorf("Spec%+v.String() = %q, want %q", s, s.String(), want)
		}
	}
	if err := (Spec{Kind: Trimmed, Trim: 0.5}).Validate(); err == nil {
		t.Error("trim 0.5 accepted")
	}
	if err := (Spec{Kind: Clip}).Validate(); err == nil {
		t.Error("clip 0 accepted")
	}
	if err := (Spec{Kind: Cosine, CosMin: 2}).Validate(); err == nil {
		t.Error("cosine 2 accepted")
	}

	edge, cloud, err := ParseTierSpecs("edge=median, cloud=trimmed(0.1)")
	if err != nil {
		t.Fatal(err)
	}
	if edge.Kind != Median || cloud.Kind != Trimmed || cloud.Trim != 0.1 {
		t.Fatalf("per-tier parse: edge=%v cloud=%v", edge, cloud)
	}
	edge, cloud, err = ParseTierSpecs("clip(2)")
	if err != nil {
		t.Fatal(err)
	}
	if edge.Kind != Clip || cloud.Clip != 2 {
		t.Fatalf("single-rule parse: edge=%v cloud=%v", edge, cloud)
	}
	// A bare rule takes its default parameter.
	for rule, want := range map[string]Spec{
		"trimmed": {Kind: Trimmed, Trim: 0.2},
		"clip":    {Kind: Clip, Clip: 10},
		"cosine":  {Kind: Cosine},
		"":        {},
	} {
		if edge, cloud, err := ParseTierSpecs(rule); err != nil || edge != want || cloud != want {
			t.Errorf("ParseTierSpecs(%q) = %v, %v, %v; want %v at both tiers", rule, edge, cloud, err, want)
		}
	}
	if _, _, err := ParseTierSpecs("edge=magic"); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad rule error %v", err)
	}
	if _, _, err := ParseTierSpecs("tower=median"); err == nil {
		t.Fatal("bad tier accepted")
	}
	if _, _, err := ParseTierSpecs("edge=median,edge=mean"); err == nil || !strings.Contains(err.Error(), `"edge" named twice`) {
		t.Fatalf("a tier named twice: err %v, want a refusal naming it", err)
	}
	for _, rule := range []string{"clip(0)", "trimmed(NaN)", "cosine(NaN)", "median(1)", "clip(1"} {
		if _, _, err := ParseTierSpecs(rule); err == nil {
			t.Errorf("ParseTierSpecs(%q) accepted", rule)
		}
	}
}
