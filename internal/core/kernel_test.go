package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"hieradmo/internal/fl"
	"hieradmo/internal/rng"
	"hieradmo/internal/robust"
	"hieradmo/internal/tensor"
)

// The kernel tests drive Leaf and Tier directly — no harness, no transport —
// so they pin the arithmetic itself; the golden digests and the sim ≡ cluster
// suites pin that both drivers feed it the same inputs.

func heapVec(dim int) func() tensor.Vector {
	return func() tensor.Vector { return tensor.NewVector(dim) }
}

// randomVecs returns n vectors of non-zero pseudo-random entries.
func randomVecs(r *rng.RNG, n, dim int) []tensor.Vector {
	vs := make([]tensor.Vector, n)
	for j := range vs {
		vs[j] = tensor.NewVector(dim)
		for d := range vs[j] {
			vs[j][d] = r.Norm() + 3
		}
	}
	return vs
}

// report points slot j of t at the given vectors.
func report(t *Tier, j int, y, x, gradSum, ySum, velRef tensor.Vector) {
	t.Y[j], t.X[j], t.GradSum[j], t.YSum[j], t.VelRef[j] = y, x, gradSum, ySum, velRef
}

func sameBits(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func seq(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// TestLeafStepIsNAG checks lines 5–6 on hand-computable numbers, the
// accumulators, and Adopt/Restart.
func TestLeafStepIsNAG(t *testing.T) {
	l := NewLeaf(tensor.Vector{1, 2}, heapVec(2))
	copy(l.Grad, tensor.Vector{10, -20})
	if err := l.Step(0.1, 0.5); err != nil {
		t.Fatal(err)
	}
	// y = x − η∇F = (0, 4); x = y + γ(y − yPrev) = (0, 4) + 0.5·((0, 4) − (1, 2)).
	if want := (tensor.Vector{0, 4}); !sameBits(l.Y, want) {
		t.Errorf("y = %v, want %v", l.Y, want)
	}
	if want := (tensor.Vector{-0.5, 5}); !sameBits(l.X, want) {
		t.Errorf("x = %v, want %v", l.X, want)
	}
	if !sameBits(l.GradSum, tensor.Vector{10, -20}) || !sameBits(l.YSum, tensor.Vector{0, 4}) {
		t.Errorf("accumulators = %v / %v", l.GradSum, l.YSum)
	}
	if err := l.Adopt(tensor.Vector{7, 7}, tensor.Vector{8, 8}); err != nil {
		t.Fatal(err)
	}
	if l.Y[0] != 7 || l.X[1] != 8 || l.GradSum[0] != 10 {
		t.Errorf("Adopt must replace y and x and leave the accumulators: %v %v %v", l.Y, l.X, l.GradSum)
	}
	l.Restart()
	if l.GradSum[0] != 0 || l.YSum[1] != 0 {
		t.Errorf("Restart left %v / %v", l.GradSum, l.YSum)
	}
	if err := l.Adopt(tensor.Vector{1}, tensor.Vector{1, 2}); err == nil {
		t.Error("Adopt accepted a short momentum vector")
	}
}

// stepRef is Step as the composition of eight whole-vector operations it was
// before it became one pass — the reference for its per-element order.
func stepRef(l *Leaf, yPrev tensor.Vector, eta, gamma float64) error {
	if err := l.GradSum.Add(l.Grad); err != nil {
		return err
	}
	if err := yPrev.CopyFrom(l.Y); err != nil {
		return err
	}
	if err := l.Y.CopyFrom(l.X); err != nil {
		return err
	}
	if err := l.Y.AXPY(-eta, l.Grad); err != nil {
		return err
	}
	if err := l.YSum.Add(l.Y); err != nil {
		return err
	}
	if err := l.X.CopyFrom(l.Y); err != nil {
		return err
	}
	if err := l.X.AXPY(gamma, l.Y); err != nil {
		return err
	}
	return l.X.AXPY(-gamma, yPrev)
}

// TestLeafStepMatchesVectorComposition chains 1 000 seeded steps through Step
// and through the vector-at-a-time reference and compares every state vector
// bit for bit, with γ = 0 (the SGD rows), η = 0 and −0 elements among the
// cases.
func TestLeafStepMatchesVectorComposition(t *testing.T) {
	const dim, steps = 37, 1000
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name       string
		eta, gamma float64
	}{
		{"nag", 0.01, 0.5},
		{"sgd gamma=0", 0.05, 0},
		{"eta=0", 0, 0.9},
		{"both zero", 0, 0},
		{"negative zero gamma", 0.01, negZero},
	} {
		r := rng.New(29)
		x0 := tensor.NewVector(dim)
		for i := range x0 {
			x0[i] = r.Norm()
		}
		x0[0], x0[1] = negZero, 0
		got, want := NewLeaf(x0, heapVec(dim)), NewLeaf(x0, heapVec(dim))
		yPrev := tensor.NewVector(dim)
		for s := 0; s < steps; s++ {
			for i := range got.Grad {
				switch r.Intn(6) {
				case 0:
					got.Grad[i] = 0
				case 1:
					got.Grad[i] = negZero
				default:
					got.Grad[i] = r.Norm()
				}
			}
			copy(want.Grad, got.Grad)
			if err := got.Step(tc.eta, tc.gamma); err != nil {
				t.Fatal(err)
			}
			if err := stepRef(want, yPrev, tc.eta, tc.gamma); err != nil {
				t.Fatal(err)
			}
			if !sameBits(got.X, want.X) || !sameBits(got.Y, want.Y) ||
				!sameBits(got.GradSum, want.GradSum) || !sameBits(got.YSum, want.YSum) {
				t.Fatalf("%s: step %d diverges from the vector composition", tc.name, s)
			}
			if s%100 == 99 {
				got.Restart()
				want.Restart()
			}
		}
	}
}

// TestLeafStepRejectsMismatchedVectors: one up-front check, before any
// element is written.
func TestLeafStepRejectsMismatchedVectors(t *testing.T) {
	for _, short := range []func(*Leaf){
		func(l *Leaf) { l.Y = l.Y[:2] },
		func(l *Leaf) { l.GradSum = l.GradSum[:2] },
		func(l *Leaf) { l.YSum = l.YSum[:2] },
		func(l *Leaf) { l.Grad = l.Grad[:2] },
		func(l *Leaf) { l.X = l.X[:2] },
	} {
		l := NewLeaf(tensor.Vector{1, 2, 3}, heapVec(3))
		copy(l.Grad, tensor.Vector{1, 1, 1})
		short(l)
		before := l.X.Clone()
		err := l.Step(0.1, 0.5)
		if !errors.Is(err, tensor.ErrDimMismatch) {
			t.Errorf("err = %v, want a wrapped ErrDimMismatch", err)
		}
		if !sameBits(l.X, before) || l.GradSum[0] != 0 {
			t.Errorf("a rejected step wrote: x = %v, Σ∇F = %v", l.X, l.GradSum)
		}
	}
}

// TestTierZeroGammaIsWeightedAverage: a momentum level with γℓ = 0 and the
// plain-average level both land on tensor.WeightedSum of the reports, to the
// bit.
func TestTierZeroGammaIsWeightedAverage(t *testing.T) {
	const dim, fan = 7, 3
	r := rng.New(5)
	ys, xs := randomVecs(r, fan, dim), randomVecs(r, fan, dim)
	full := []float64{0.5, 0.3, 0.2}
	wantY, wantX := tensor.NewVector(dim), tensor.NewVector(dim)
	if err := tensor.WeightedSum(wantY, full, ys); err != nil {
		t.Fatal(err)
	}
	if err := tensor.WeightedSum(wantX, full, xs); err != nil {
		t.Fatal(err)
	}
	x0 := randomVecs(r, 1, dim)[0]
	for name, lv := range map[string]Level{
		"momentum γ=0": {Momentum: true, X0: x0},
		"plain":        {X0: x0},
	} {
		tier := NewTier(lv, fan, heapVec(dim))
		for j := range ys {
			report(tier, j, ys[j], xs[j], nil, nil, nil)
		}
		out, err := tier.Update(full, seq(fan), 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Gamma != 0 || out.Applied != 0 {
			t.Errorf("%s: outcome %+v, want γℓ = 0", name, out)
		}
		if !sameBits(tier.YMinus, wantY) || !sameBits(tier.XPlus, wantX) || !sameBits(tier.YPlus, wantX) {
			t.Errorf("%s: update is not the weighted average", name)
		}
	}
}

// TestTierMomentumStep checks line 13 against the formula with a fixed γℓ
// and that carry scales the factor for one round only.
func TestTierMomentumStep(t *testing.T) {
	x0 := tensor.Vector{1, 1}
	tier := NewTier(Level{Momentum: true, Gamma: 0.5, X0: x0}, 1, heapVec(2))
	y, x := tensor.Vector{9, 9}, tensor.Vector{3, 5}
	report(tier, 0, y, x, nil, nil, nil)
	out, err := tier.Update([]float64{1}, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// x⁺ = (3, 5) + 0.5·((3, 5) − (1, 1)).
	if want := (tensor.Vector{4, 7}); !sameBits(tier.XPlus, want) || out.Applied != 0.5 {
		t.Errorf("x⁺ = %v (γ %v), want %v", tier.XPlus, out.Applied, want)
	}
	if !sameBits(tier.YPlus, x) || !sameBits(tier.YMinus, y) {
		t.Errorf("y⁺ = %v, y⁻ = %v", tier.YPlus, tier.YMinus)
	}
	out, err = tier.Update([]float64{1}, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Gamma != 0.5 || out.Applied != 0 || !sameBits(tier.XPlus, x) {
		t.Errorf("carry 0: outcome %+v, x⁺ = %v, want the plain average %v", out, tier.XPlus, x)
	}
}

// TestTierMatchesCloudAverage: the plain-average level is bitwise the
// Dℓ/D-weighted tensor.WeightedSum, the reduction the simulation's cloud used
// before it became a Tier.
func TestTierMatchesCloudAverage(t *testing.T) {
	cfg := buildConfig(t, []int{3, 1, 2}, 0, 29)
	hn, err := fl.NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const dim = 11
	r := rng.New(7)
	ys, xs := randomVecs(r, cfg.NumEdges(), dim), randomVecs(r, cfg.NumEdges(), dim)
	wantY, wantX := tensor.NewVector(dim), tensor.NewVector(dim)
	if err := tensor.WeightedSum(wantY, hn.EdgeWeights, ys); err != nil {
		t.Fatal(err)
	}
	if err := tensor.WeightedSum(wantX, hn.EdgeWeights, xs); err != nil {
		t.Fatal(err)
	}
	cloud := NewTier(Level{X0: tensor.NewVector(dim)}, cfg.NumEdges(), heapVec(dim))
	for l := range ys {
		report(cloud, l, ys[l], xs[l], nil, nil, nil)
	}
	if _, err := cloud.Update(hn.EdgeWeights, seq(cfg.NumEdges()), 1); err != nil {
		t.Fatal(err)
	}
	if !sameBits(cloud.YMinus, wantY) || !sameBits(cloud.XPlus, wantX) {
		t.Error("plain-average tier diverges from the weighted sum")
	}
}

// TestTierPartialCohortRenormalizes pins the partial-participation
// arithmetic: the reporters' weights are summed in ascending position and
// each divided once by that sum.
func TestTierPartialCohortRenormalizes(t *testing.T) {
	const dim = 5
	r := rng.New(11)
	full := []float64{0.1, 0.2, 0.3, 0.4}
	idx := []int{0, 2, 3}
	ys, xs := randomVecs(r, len(idx), dim), randomVecs(r, len(idx), dim)
	w := make([]float64, len(idx))
	var sum float64
	for j, i := range idx {
		w[j] = full[i]
		sum += w[j]
	}
	for j := range w {
		w[j] /= sum
	}
	want := tensor.NewVector(dim)
	if err := tensor.WeightedSum(want, w, xs); err != nil {
		t.Fatal(err)
	}
	tier := NewTier(Level{X0: tensor.NewVector(dim)}, len(full), heapVec(dim))
	for j := range idx {
		report(tier, j, ys[j], xs[j], nil, nil, nil)
	}
	if _, err := tier.Update(full, idx, 1); err != nil {
		t.Fatal(err)
	}
	if !sameBits(tier.XPlus, want) {
		t.Errorf("partial cohort: x⁺ = %v, want %v", tier.XPlus, want)
	}

	for name, bad := range map[string][]int{
		"no reporters":       {},
		"more than cohort":   {0, 1, 2, 3, 3},
		"position off range": {0, 4},
	} {
		if _, err := tier.Update(full, bad, 1); err == nil {
			t.Errorf("%s: Update accepted idx %v", name, bad)
		}
	}
	short := NewTier(Level{X0: tensor.NewVector(dim)}, 2, heapVec(dim))
	if _, err := short.Update(full, idx, 1); err == nil {
		t.Error("Update accepted more reporters than the tier was sized for")
	}
}

// adaptCase is one row of the γℓ adaptation table: eq. (6) geometry in,
// cosine out. The rows run through EdgeCosine directly and through an
// adaptive Tier (velocity signal against a zero reference, so the signal the
// kernel derives is exactly the row's), which must clamp per eq. (7).
type adaptCase struct {
	name     string
	weights  []float64
	gradSums []tensor.Vector
	signals  []tensor.Vector
	want     float64
}

func adaptCases() []adaptCase {
	v := func(xs ...float64) tensor.Vector { return tensor.Vector(xs) }
	return []adaptCase{
		{
			name:    "single worker, signal opposes gradient (descent agreement)",
			weights: []float64{1}, gradSums: []tensor.Vector{v(3, 0)}, signals: []tensor.Vector{v(-2, 0)},
			want: 1,
		},
		{
			name:    "single worker, signal along gradient (full disagreement)",
			weights: []float64{1}, gradSums: []tensor.Vector{v(1, 1)}, signals: []tensor.Vector{v(2, 2)},
			want: -1,
		},
		{
			name:    "exact orthogonal",
			weights: []float64{1}, gradSums: []tensor.Vector{v(1, 0)}, signals: []tensor.Vector{v(0, 5)},
			want: 0,
		},
		{
			name:    "zero-norm gradient accumulator",
			weights: []float64{1}, gradSums: []tensor.Vector{v(0, 0)}, signals: []tensor.Vector{v(1, 2)},
			want: 0,
		},
		{
			name:    "zero-norm momentum signal",
			weights: []float64{1}, gradSums: []tensor.Vector{v(1, 2)}, signals: []tensor.Vector{v(0, 0)},
			want: 0,
		},
		{
			name:    "both accumulators zero",
			weights: []float64{1}, gradSums: []tensor.Vector{v(0, 0)}, signals: []tensor.Vector{v(0, 0)},
			want: 0,
		},
		{
			name:    "subnormal norms treated as no signal",
			weights: []float64{1}, gradSums: []tensor.Vector{v(1e-200, 0)}, signals: []tensor.Vector{v(1e-200, 0)},
			want: 0,
		},
		{
			name:     "weighted mixture of agree and disagree",
			weights:  []float64{0.75, 0.25},
			gradSums: []tensor.Vector{v(1, 0), v(1, 0)},
			signals:  []tensor.Vector{v(-1, 0), v(1, 0)},
			want:     0.75*1 + 0.25*(-1),
		},
		{
			name:     "obtuse mixture",
			weights:  []float64{0.25, 0.75},
			gradSums: []tensor.Vector{v(1, 0), v(1, 0)},
			signals:  []tensor.Vector{v(-1, 0), v(1, 0)},
			want:     -0.5,
		},
		{
			name:     "weighted orthogonal pair stays zero",
			weights:  []float64{0.5, 0.5},
			gradSums: []tensor.Vector{v(1, 0), v(0, 1)},
			signals:  []tensor.Vector{v(0, 1), v(1, 0)},
			want:     0,
		},
		{
			name:    "no workers",
			weights: nil, gradSums: nil, signals: nil,
			want: 0,
		},
	}
}

// TestAdaptationTable pins eq. (6)–(7) on degenerate geometry, once on
// EdgeCosine and once through the kernel. EdgeCosine compares the NEGATED
// gradient sum against the momentum signal, so a signal pointing exactly
// along the descent direction (opposite the gradient) is perfect agreement;
// an obtuse angle zeroes γℓ and agreement saturates at the ceiling.
func TestAdaptationTable(t *testing.T) {
	for _, tc := range adaptCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, err := EdgeCosine(tc.weights, tc.gradSums, tc.signals)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("EdgeCosine = %v, want %v", got, tc.want)
			}
			n := len(tc.weights)
			if n == 0 {
				return // a Tier round needs a reporter
			}
			for _, ceiling := range []float64{DefaultClampCeiling, 0.6} {
				lv := Level{Momentum: true, Adapt: true, Signal: SignalVelocity, Ceiling: ceiling,
					Gamma: 0.123, X0: tensor.NewVector(2)}
				tier := NewTier(lv, n, heapVec(2))
				zero := tensor.NewVector(2)
				for j := range tc.weights {
					report(tier, j, tc.signals[j], tensor.NewVector(2), tc.gradSums[j], tensor.NewVector(2), zero)
				}
				out, err := tier.Update(tc.weights, seq(n), 1)
				if err != nil {
					t.Fatal(err)
				}
				if out.Cos != got {
					t.Errorf("kernel cosine %v != EdgeCosine %v", out.Cos, got)
				}
				if want := ClampGamma(got, ceiling); out.Gamma != want || out.Applied != want {
					t.Errorf("ceiling %v: γℓ = %v (applied %v), want ClampGamma = %v", ceiling, out.Gamma, out.Applied, want)
				}
				if got <= 0 && out.Gamma != 0 {
					t.Errorf("obtuse cosine %v kept momentum %v", got, out.Gamma)
				}
				if out.Gamma < 0 || out.Gamma > ceiling {
					t.Errorf("γℓ = %v escapes [0, %v]", out.Gamma, ceiling)
				}
			}
		})
	}
}

// TestTierYSumSignalIsCentred: the default signal is Σy − τ·x⁰, so a leaf
// that never moved from x⁰ carries no signal however large x⁰ is.
func TestTierYSumSignalIsCentred(t *testing.T) {
	x0 := tensor.Vector{100, -50}
	lv := Level{Momentum: true, Adapt: true, Signal: SignalYSum, Ceiling: DefaultClampCeiling, Tau: 4, X0: x0}
	tier := NewTier(lv, 1, heapVec(2))
	grad := tensor.Vector{1, 0}
	still := tensor.Vector{400, -200} // Σ over τ = 4 steps of y = x⁰
	report(tier, 0, x0, x0, grad, still, nil)
	out, err := tier.Update([]float64{1}, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cos != 0 || out.Gamma != 0 {
		t.Errorf("stationary leaf: cos %v γℓ %v, want 0", out.Cos, out.Gamma)
	}
	moved := tensor.Vector{400 - 8, -200} // drifted along −∇F
	report(tier, 0, x0, x0, grad, moved, nil)
	if out, err = tier.Update([]float64{1}, []int{0}, 1); err != nil {
		t.Fatal(err)
	}
	if out.Cos != 1 || out.Gamma != DefaultClampCeiling {
		t.Errorf("descending leaf: cos %v γℓ %v, want 1 clamped to the ceiling", out.Cos, out.Gamma)
	}
	// An adaptive level without the accumulators is a shape error, not a panic.
	report(tier, 0, x0, x0, nil, nil, nil)
	if _, err := tier.Update([]float64{1}, []int{0}, 1); err == nil {
		t.Error("adaptive Update accepted a report without accumulators")
	}
}

// TestTierPlainLevelKeepsNegativeZero: a level without momentum skips the
// line-13 AXPYs outright. A robust rule can hand it an exact −0 (a median
// picks reporter values; a sum started at +0 never produces one), and
// −0 + 0·(−0) − 0·y₊ would flip it to +0 wherever y₊ is negative.
func TestTierPlainLevelKeepsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	median, err := robust.New(robust.Spec{Kind: robust.Median})
	if err != nil {
		t.Fatal(err)
	}
	x0 := tensor.Vector{-1}
	for _, momentum := range []bool{false, true} {
		tier := NewTier(Level{Momentum: momentum, X0: x0, Agg: median}, 3, heapVec(1))
		for j := 0; j < 3; j++ {
			report(tier, j, tensor.Vector{negZero}, tensor.Vector{negZero}, nil, nil, nil)
		}
		if _, err := tier.Update([]float64{0.4, 0.3, 0.3}, seq(3), 1); err != nil {
			t.Fatal(err)
		}
		if kept := math.Signbit(tier.XPlus[0]); kept == momentum {
			t.Errorf("momentum=%v: x⁺ = %v (sign bit %v)", momentum, tier.XPlus[0], kept)
		}
	}
}

// TestTierRobustRejectsAcrossStreams: a reporter the rule throws out for its
// momentum is thrown out of the model stream too, and the previous
// aggregates serve as deviation references without being aliased.
func TestTierRobustRejectsAcrossStreams(t *testing.T) {
	median, err := robust.New(robust.Spec{Kind: robust.Median})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewTier(Level{X0: tensor.Vector{0}, Agg: median}, 3, heapVec(1))
	report(tier, 0, tensor.Vector{1}, tensor.Vector{10}, nil, nil, nil)
	report(tier, 1, tensor.Vector{2}, tensor.Vector{20}, nil, nil, nil)
	report(tier, 2, tensor.Vector{math.NaN()}, tensor.Vector{1000}, nil, nil, nil)
	out, err := tier.Update([]float64{0.2, 0.3, 0.5}, seq(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Robust.Rejected) != 1 || out.Robust.Rejected[0] != 2 {
		t.Fatalf("rejected %v, want reporter 2", out.Robust.Rejected)
	}
	// Survivors {10, 20}: had reporter 2's finite model stayed in, the
	// median would be 20.
	if tier.XPlus[0] != 15 || tier.YMinus[0] != 1.5 {
		t.Errorf("x⁺ = %v, y⁻ = %v, want the survivors' medians 15 and 1.5", tier.XPlus[0], tier.YMinus[0])
	}
	// Every reporter non-finite: the rule's error surfaces, named.
	for j := 0; j < 3; j++ {
		report(tier, j, tensor.Vector{math.Inf(1)}, tensor.Vector{1}, nil, nil, nil)
	}
	if _, err := tier.Update([]float64{0.2, 0.3, 0.5}, seq(3), 1); err == nil || !strings.Contains(err.Error(), "median") {
		t.Errorf("all-non-finite cohort: err = %v, want a median aggregation error", err)
	}
}

// TestKernelAllocFree pins the steady state: after the first step or round
// has sized the batch buffer and warmed the model's workspace pool, a leaf
// step (gradient included) and a mean-path tier round allocate nothing.
func TestKernelAllocFree(t *testing.T) {
	cfg := buildConfig(t, []int{2}, 0, 3)
	dim := cfg.Model.Dim()
	x0 := tensor.NewVector(dim)
	oracle := fl.NewGradOracle(cfg, cfg.Edges[0][0], fl.WorkerSampler(cfg.Seed, 0, 0), nil)
	leaf := NewLeaf(x0, heapVec(dim))
	step := func() {
		if _, err := oracle.Grad(leaf.X, leaf.Grad); err != nil {
			t.Fatal(err)
		}
		if err := leaf.Step(cfg.Eta, cfg.Gamma); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if n := testing.AllocsPerRun(50, step); n != 0 && !raceEnabled {
		t.Errorf("leaf step allocates %v times per iteration", n)
	}

	r := rng.New(13)
	const fan = 4
	ys, xs := randomVecs(r, fan, dim), randomVecs(r, fan, dim)
	gs, ss := randomVecs(r, fan, dim), randomVecs(r, fan, dim)
	full := []float64{0.25, 0.25, 0.25, 0.25}
	idx := seq(fan)
	for name, lv := range map[string]Level{
		"momentum+adapt": {Momentum: true, Adapt: true, Signal: SignalYSum, Ceiling: DefaultClampCeiling, Tau: 2, X0: x0},
		"momentum fixed": {Momentum: true, Gamma: 0.5, X0: x0},
		"plain average":  {X0: x0},
	} {
		tier := NewTier(lv, fan, heapVec(dim))
		for j := 0; j < fan; j++ {
			report(tier, j, ys[j], xs[j], gs[j], ss[j], x0)
		}
		round := func() {
			if _, err := tier.Update(full, idx, 1); err != nil {
				t.Fatal(err)
			}
		}
		round()
		if n := testing.AllocsPerRun(20, round); n != 0 {
			t.Errorf("%s: tier round allocates %v times", name, n)
		}
	}
}
