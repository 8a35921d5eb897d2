package robust

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"hieradmo/internal/tensor"
)

// fuzzCohort decodes an arbitrary byte string into an aggregation call:
// cohort size, dimension, a weight vector, and per-reporter values that
// can be any float64 bit pattern (NaN, ±Inf, subnormals). The decoder
// also mis-sizes one report when the input asks for it, so shape
// validation is fuzzed alongside value handling.
func fuzzCohort(data []byte) (dsts, prev []tensor.Vector, weights []float64, comps [][]tensor.Vector, ok bool) {
	if len(data) < 3 {
		return nil, nil, nil, nil, false
	}
	n := int(data[0]%8) + 1   // 1..8 reporters
	dim := int(data[1]%6) + 1 // 1..6 coordinates
	misshape := data[2]&1 == 1
	data = data[3:]

	f64 := func() float64 {
		if len(data) < 8 {
			// Exhausted input degrades to a fixed finite value rather
			// than rejecting the case: short inputs still exercise the
			// rules.
			return 0.5
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return v
	}

	weights = make([]float64, n)
	for j := range weights {
		// Weights come from the harness/membership schedule, which only
		// ever emits finite non-negative values; keep them in range so
		// the fuzz targets the report values.
		w := math.Abs(f64())
		if !(w < math.MaxFloat64) {
			w = 1
		}
		weights[j] = w
	}

	comps = make([][]tensor.Vector, 2)
	for c := range comps {
		comps[c] = make([]tensor.Vector, n)
		for j := range comps[c] {
			d := dim
			if misshape && c == 1 && j == n-1 {
				d = dim + 1
			}
			v := tensor.NewVector(d)
			for i := range v {
				v[i] = f64()
			}
			comps[c][j] = v
		}
	}
	dsts = []tensor.Vector{tensor.NewVector(dim), tensor.NewVector(dim)}
	prev = []tensor.Vector{tensor.NewVector(dim), tensor.NewVector(dim)}
	for c := range prev {
		for i := range prev[c] {
			// prev models the node's previous aggregate, which is
			// trusted finite state in the runtime; keep it finite so
			// the targets fuzz report handling, not precondition
			// violations.
			v := f64()
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			prev[c][i] = v
		}
	}
	return dsts, prev, weights, comps, true
}

// fuzzAggregate drives one rule over a decoded cohort and enforces the
// robustness contract: no panic ever, and on success the output carries
// no non-finite values (rejection, not propagation) when the previous
// aggregate was finite.
func fuzzAggregate(t *testing.T, a Aggregator, data []byte) {
	dsts, prev, weights, comps, ok := fuzzCohort(data)
	if !ok {
		return
	}
	st, err := a.Aggregate(dsts, prev, weights, comps)
	if err != nil {
		return
	}
	if st.Participants != len(weights) {
		t.Fatalf("participants %d, want %d", st.Participants, len(weights))
	}
	for i := 1; i < len(st.Rejected); i++ {
		if st.Rejected[i-1] >= st.Rejected[i] {
			t.Fatalf("rejected not ascending: %v", st.Rejected)
		}
	}
	for c := range dsts {
		if !dsts[c].IsFinite() {
			t.Fatalf("%s propagated non-finite values: comp %d = %v (rejected %v)",
				a.Name(), c, dsts[c], st.Rejected)
		}
	}
}

func FuzzMedianAggregate(f *testing.F) {
	f.Add([]byte{2, 3, 0})
	f.Add([]byte{0, 0, 1})
	seed := make([]byte, 3+8*20)
	seed[0], seed[1] = 4, 2
	binary.LittleEndian.PutUint64(seed[3:], math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(seed[11:], math.Float64bits(math.Inf(1)))
	f.Add(seed)
	a, err := New(Spec{Kind: Median})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzAggregate(t, a, data)
	})
}

func FuzzTrimmedMean(f *testing.F) {
	f.Add([]byte{7, 4, 0})
	f.Add([]byte{1, 1, 1})
	a, err := New(Spec{Kind: Trimmed, Trim: 0.25})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzAggregate(t, a, data)
	})
}

// FuzzParsePlan holds the -attack-plan parser to its contract on arbitrary
// specs: a plan or an error, never a panic; a spec without entries is no
// plan at all, whatever the seed; and an accepted plan's canonical entries
// parse back to the same Signature.
func FuzzParsePlan(f *testing.F) {
	for _, spec := range []string{
		"",
		",",
		"signflip:worker-0-1@3",
		"scale:worker-1-0@2-6=10,noise:worker-0-0@1=0.5, replay:worker-1-1@4-4",
		"scale:w@2=NaN",
		"noise:w@1-0=1e-3",
		"signflip:a:b@1=7",
	} {
		f.Add(spec, uint64(3))
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		plan, err := ParsePlan(spec, seed)
		if err != nil || plan == nil {
			return
		}
		if plan.Empty() {
			t.Fatalf("ParsePlan(%q) = an empty plan, want nil", spec)
		}
		entries := make([]string, len(plan.Attacks))
		for i, a := range plan.Attacks {
			entries[i] = a.String()
		}
		canonical := strings.Join(entries, ",")
		again, err := ParsePlan(canonical, seed)
		if err != nil {
			t.Fatalf("canonical form %q of %q: %v", canonical, spec, err)
		}
		if again.Signature() != plan.Signature() {
			t.Fatalf("%q re-parses to %q, want %q", canonical, again.Signature(), plan.Signature())
		}
	})
}
