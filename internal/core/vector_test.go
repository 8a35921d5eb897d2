package core

import (
	"fmt"
	"math"
	"testing"

	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
)

// The vector bodies of Step and of the mean (kernel_amd64.s) against their Go
// loops, bit for bit: every case runs on two identical copies, once with
// vectorBodies set and once with it cleared. Where the CPU or GOARCH has no
// vector body both runs are the Go loops and the tests pass trivially, which
// is the point: nothing but the detection selects a body.

// withBodies runs f with vectorBodies set to on.
func withBodies(on bool, f func()) {
	defer SetVectorBodies(on)()
	f()
}

// specials are the values a lane must carry exactly as the Go loop does:
// signed zeros, subnormals, and magnitudes whose products and sums overflow.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, -1e-308,
	1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
}

// Fill modes: ordinary values; ordinary values salted with specials; only
// specials; and, for cancel, ordinary values arranged so sums cancel exactly.
const (
	fillOrdinary = iota
	fillSalted
	fillSpecial
	fillCancel
	fillModes
)

func fillMode(r *rng.RNG, v []float64, mode int) {
	for i := range v {
		switch {
		case mode == fillSpecial, mode == fillSalted && r.Intn(3) == 0:
			v[i] = specials[r.Intn(len(specials))]
		default:
			v[i] = r.Norm()
		}
	}
}

// offsetVecs returns count vectors of n elements, each starting off elements
// into its own buffer, so the vector body's loads and stores are unaligned
// for off = 1..3.
func offsetVecs(count, n, off int) []tensor.Vector {
	vs := make([]tensor.Vector, count)
	for k := range vs {
		vs[k] = tensor.NewVector(n + off)[off:]
	}
	return vs
}

func sameVecs(t testing.TB, what string, got, want []tensor.Vector, names ...string) {
	t.Helper()
	for k := range want {
		for i := range want[k] {
			if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
				t.Fatalf("%s: %s[%d] = %x (%v), the Go loop's %x (%v)", what, names[k], i,
					math.Float64bits(got[k][i]), got[k][i], math.Float64bits(want[k][i]), want[k][i])
			}
		}
	}
}

// checkStep runs one Step of n elements both ways. Under fillCancel every
// x = η·g, so y = x + (−η)·g cancels to +0, and y_prev = x.
func checkStep(t testing.TB, r *rng.RNG, n, off, mode int, eta, gamma float64) {
	t.Helper()
	what := fmt.Sprintf("Step n=%d off=%d mode=%d η=%v γ=%v", n, off, mode, eta, gamma)
	leaf := func(vs []tensor.Vector) *Leaf {
		return &Leaf{X: vs[0], Y: vs[1], GradSum: vs[2], YSum: vs[3], Grad: vs[4]}
	}
	gotVs, wantVs := offsetVecs(LeafVectors, n, off), offsetVecs(LeafVectors, n, off)
	for k := range gotVs {
		fillMode(r, gotVs[k], mode)
	}
	if mode == fillCancel {
		for i, g := range gotVs[4] {
			gotVs[0][i] = eta * g
			gotVs[1][i] = gotVs[0][i]
		}
	}
	for k := range wantVs {
		copy(wantVs[k], gotVs[k])
	}
	got, want := leaf(gotVs), leaf(wantVs)
	withBodies(true, func() {
		if err := got.Step(eta, gamma); err != nil {
			t.Fatal(err)
		}
	})
	withBodies(false, func() {
		if err := want.Step(eta, gamma); err != nil {
			t.Fatal(err)
		}
	})
	sameVecs(t, what, gotVs, wantVs, "x", "y", "Σ∇F", "Σy", "∇F")
}

// checkMean runs one mean-rule round of fan reporters over dim elements both
// ways, from a y_ℓ+ and y_ℓ− history of its own. Under fillCancel reporter
// 2k+1 reports the negation of reporter 2k at an equal weight, so their
// products cancel exactly.
func checkMean(t testing.TB, r *rng.RNG, dim, off, fan, mode int, momentum bool, gamma float64) {
	t.Helper()
	what := fmt.Sprintf("mean dim=%d off=%d fan=%d mode=%d momentum=%v γ=%v", dim, off, fan, mode, momentum, gamma)
	x0 := offsetVecs(1, dim, off)[0]
	fillMode(r, x0, mode)
	lv := Level{Momentum: momentum, Gamma: gamma, X0: x0}
	newVec := func() tensor.Vector { return offsetVecs(1, dim, off)[0] }
	got, want := NewTier(lv, fan, newVec), NewTier(lv, fan, newVec)
	fillMode(r, got.YPlus, mode)
	fillMode(r, got.YMinus, mode)
	copy(want.YPlus, got.YPlus)
	copy(want.YMinus, got.YMinus)
	ys, xs := offsetVecs(fan, dim, off), offsetVecs(fan, dim, off)
	full := make([]float64, fan)
	for j := range ys {
		fillMode(r, ys[j], mode)
		fillMode(r, xs[j], mode)
		full[j] = 0.05 + r.Float64()
		if mode == fillCancel && j%2 == 1 {
			full[j] = full[j-1]
			for i := range ys[j] {
				ys[j][i], xs[j][i] = -ys[j-1][i], -xs[j-1][i]
			}
		}
		report(got, j, ys[j], xs[j])
		report(want, j, ys[j], xs[j])
	}
	withBodies(true, func() {
		if _, err := got.Update(full, seq(fan), 1); err != nil {
			t.Fatal(err)
		}
	})
	withBodies(false, func() {
		if _, err := want.Update(full, seq(fan), 1); err != nil {
			t.Fatal(err)
		}
	})
	sameVecs(t, what, []tensor.Vector{got.YMinus, got.XPlus, got.YPlus},
		[]tensor.Vector{want.YMinus, want.XPlus, want.YPlus}, "y⁻", "x⁺", "y⁺")
	if !momentum {
		// Line 13 is skipped, not multiplied by zero: x⁺ is y⁺ itself,
		// whatever the history holds.
		sameVecs(t, what+" (x⁺ against y⁺)", []tensor.Vector{got.XPlus}, []tensor.Vector{got.YPlus}, "x⁺")
	}
}

// kernelLengths are the table's lengths: every n mod 4 around one and two
// blocks, the sync model's dimension and an odd one.
func kernelLengths() []int {
	ns := []int{15380, 1001}
	for n := 0; n <= 13; n++ {
		ns = append(ns, n)
	}
	return ns
}

func TestStepVectorBodyMatchesGoLoop(t *testing.T) {
	r := rng.New(47)
	negZero := math.Copysign(0, -1)
	for _, n := range kernelLengths() {
		for off := 0; off <= 3; off++ {
			for mode := 0; mode < fillModes; mode++ {
				for _, c := range []struct{ eta, gamma float64 }{
					{0.05, 0.5}, {0, 0.9}, {0.05, 0}, {0, 0}, {0.01, negZero}, {1e300, 1e10},
				} {
					checkStep(t, r, n, off, mode, c.eta, c.gamma)
				}
			}
		}
	}
}

func TestMeanVectorBodyMatchesGoLoop(t *testing.T) {
	r := rng.New(53)
	negZero := math.Copysign(0, -1)
	for _, dim := range kernelLengths() {
		if dim == 0 {
			continue // a tier has a model
		}
		for off := 0; off <= 3; off++ {
			for fan := 1; fan <= 8; fan++ {
				for mode := 0; mode < fillModes; mode++ {
					for _, momentum := range []bool{true, false} {
						for _, gamma := range []float64{0.7, 0, negZero} {
							if dim > 1001 && (off != fan%4 || gamma != 0.7) {
								continue // the long vectors once per fan, at one offset
							}
							checkMean(t, r, dim, off, fan, mode, momentum, gamma)
						}
					}
				}
			}
		}
	}
}

// TestMeanAllNegativeZeroCohort: every accumulator starts at +0, on both
// bodies, so a cohort reporting only −0 averages to +0.
func TestMeanAllNegativeZeroCohort(t *testing.T) {
	const dim, fan = 11, 3
	negZero := math.Copysign(0, -1)
	for _, on := range []bool{true, false} {
		tier := NewTier(Level{X0: tensor.NewVector(dim)}, fan, heapVec(dim))
		for j := 0; j < fan; j++ {
			v := tensor.NewVector(dim)
			v.Fill(negZero)
			report(tier, j, v, v)
		}
		withBodies(on, func() {
			if _, err := tier.Update([]float64{0.5, 0.25, 0.25}, seq(fan), 1); err != nil {
				t.Fatal(err)
			}
		})
		for i := 0; i < dim; i++ {
			if math.Signbit(tier.YMinus[i]) || math.Signbit(tier.XPlus[i]) || math.Signbit(tier.YPlus[i]) {
				t.Fatalf("vector bodies %v: element %d averages to −0", on, i)
			}
		}
	}
}

// FuzzVectorBodies lets the fuzzer pick the length, the offset, the cohort and
// the data for all three vector bodies: Step, the mean, and tensor's
// Vector.Scale against the loop it stands for.
func FuzzVectorBodies(f *testing.F) {
	f.Add(15380, 0, 4, 1, true, uint64(1))
	f.Add(13, 3, 8, 3, false, uint64(2))
	f.Add(5, 1, 1, 2, true, uint64(3))
	f.Add(4, 2, 2, 0, false, uint64(4))
	f.Fuzz(func(t *testing.T, n, off, fan, mode int, momentum bool, seed uint64) {
		// Bound the shape so a fuzzed input can't demand gigabytes.
		if n < 1 || n > 20000 || off < 0 || off > 3 || fan < 1 || fan > 8 || mode < 0 || mode >= fillModes {
			t.Skip()
		}
		r := rng.New(seed)
		scalars := append([]float64{0.05, 0.5, 0.9, 1e10}, specials...)
		pick := func() float64 { return scalars[r.Intn(len(scalars))] }
		checkStep(t, r, n, off, mode, pick(), pick())
		checkMean(t, r, n, off, fan, mode, momentum, pick())

		v := offsetVecs(1, n, off)[0]
		fillMode(r, v, mode)
		want := v.Clone()
		c := pick()
		v.Scale(c)
		for i := range want {
			want[i] *= c
		}
		sameVecs(t, fmt.Sprintf("Scale n=%d off=%d c=%v", n, off, c), []tensor.Vector{v}, []tensor.Vector{want}, "v")
	})
}
