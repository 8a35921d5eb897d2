package tensor

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"hieradmo/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewVectorZeroed(t *testing.T) {
	v := NewVector(5)
	if len(v) != 5 {
		t.Fatalf("len = %d, want 5", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("v[%d] = %v, want 0", i, x)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Errorf("clone aliases original: v[0] = %v", v[0])
	}
}

func TestCloneNil(t *testing.T) {
	var v Vector
	if c := v.Clone(); c != nil {
		t.Errorf("Clone(nil) = %v, want nil", c)
	}
}

func TestCopyFrom(t *testing.T) {
	v := NewVector(3)
	if err := v.CopyFrom(Vector{1, 2, 3}); err != nil {
		t.Fatalf("CopyFrom: %v", err)
	}
	if v[2] != 3 {
		t.Errorf("v[2] = %v, want 3", v[2])
	}
	if err := v.CopyFrom(Vector{1}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("mismatched CopyFrom error = %v, want ErrDimMismatch", err)
	}
}

func TestAddSubScale(t *testing.T) {
	v := Vector{1, 2, 3}
	if err := v.Add(Vector{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if v[0] != 2 || v[1] != 3 || v[2] != 4 {
		t.Errorf("after Add, v = %v", v)
	}
	if err := v.Sub(Vector{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if v[0] != 0 || v[1] != 1 || v[2] != 2 {
		t.Errorf("after Sub, v = %v", v)
	}
	v.Scale(3)
	if v[2] != 6 {
		t.Errorf("after Scale, v = %v", v)
	}
}

// checkScale holds Scale (the vector body where the CPU has one) to
// scaleGeneric bit for bit on n elements starting off elements into a buffer,
// so the body's loads are unaligned for off = 1..3, and salted with signed
// zeros, subnormals and magnitudes that overflow.
func checkScale(t testing.TB, r *rng.RNG, n, off int, c float64) {
	t.Helper()
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e300, -math.MaxFloat64}
	got := make(Vector, n+off)[off:]
	for i := range got {
		got[i] = r.Norm()
		if r.Intn(3) == 0 {
			got[i] = specials[r.Intn(len(specials))]
		}
	}
	want := got.Clone()
	got.Scale(c)
	scaleGeneric(want, c)
	sameBits(t, fmt.Sprintf("Scale n=%d off=%d c=%v", n, off, c), got, want)
}

func TestScaleMatchesGeneric(t *testing.T) {
	r := rng.New(41)
	ns := []int{15380, 1001}
	for n := 0; n <= 13; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		for off := 0; off <= 3; off++ {
			for _, c := range []float64{0.125, 1.0 / 3, 0, math.Copysign(0, -1), -7, 1e300, 5e-324} {
				checkScale(t, r, n, off, c)
			}
		}
	}
}

func TestAddDimMismatch(t *testing.T) {
	v := Vector{1}
	if err := v.Add(Vector{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("err = %v, want ErrDimMismatch", err)
	}
	if err := v.Sub(Vector{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("err = %v, want ErrDimMismatch", err)
	}
	if err := v.AXPY(2, Vector{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("err = %v, want ErrDimMismatch", err)
	}
}

func TestAXPY(t *testing.T) {
	v := Vector{1, 1}
	if err := v.AXPY(2, Vector{3, 4}); err != nil {
		t.Fatal(err)
	}
	if v[0] != 7 || v[1] != 9 {
		t.Errorf("v = %v, want [7 9]", v)
	}
}

func TestDot(t *testing.T) {
	got, err := Dot(Vector{1, 2, 3}, Vector{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Errorf("dot = %v, want 32", got)
	}
	if _, err := Dot(Vector{1}, Vector{1, 2}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("err = %v, want ErrDimMismatch", err)
	}
}

func TestNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("norm = %v, want 5", got)
	}
	if got := v.NormSq(); !almostEqual(got, 25, 1e-12) {
		t.Errorf("normsq = %v, want 25", got)
	}
}

func TestCosine(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want float64
	}{
		{name: "parallel", a: Vector{1, 0}, b: Vector{2, 0}, want: 1},
		{name: "antiparallel", a: Vector{1, 0}, b: Vector{-3, 0}, want: -1},
		{name: "orthogonal", a: Vector{1, 0}, b: Vector{0, 5}, want: 0},
		{name: "zero vector", a: Vector{0, 0}, b: Vector{1, 1}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Cosine(tt.a, tt.b)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("cos = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestCosineBounded(t *testing.T) {
	// Property: cosine is always within [-1, 1] (Cauchy-Schwarz).
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		c, err := Cosine(Vector(a[:n]), Vector(b[:n]))
		if err != nil {
			return false
		}
		return c >= -1 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDist(t *testing.T) {
	got, err := Dist(Vector{0, 0}, Vector{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 5, 1e-12) {
		t.Errorf("dist = %v, want 5", got)
	}
}

func TestWeightedSum(t *testing.T) {
	dst := NewVector(2)
	err := WeightedSum(dst, []float64{0.25, 0.75}, []Vector{{4, 0}, {0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1 || dst[1] != 3 {
		t.Errorf("dst = %v, want [1 3]", dst)
	}
}

func TestWeightedSumErrors(t *testing.T) {
	dst := NewVector(2)
	if err := WeightedSum(dst, []float64{1}, []Vector{{1, 1}, {2, 2}}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("weights/vectors count mismatch err = %v", err)
	}
	if err := WeightedSum(dst, []float64{1}, []Vector{{1, 2, 3}}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("vector length mismatch err = %v", err)
	}
}

// TestWeightedSumMatchesPasses holds the one-pass reduction to the Zero +
// one-AXPY-per-term composition it replaces, bit for bit, across the 4-wide
// block remainders, with −0 terms that a +0 start must absorb.
func TestWeightedSumMatchesPasses(t *testing.T) {
	r := rng.New(31)
	negZero := math.Copysign(0, -1)
	for _, dim := range []int{0, 1, 3, 4, 5, 8, 15, 64, 1001} {
		for _, n := range []int{0, 1, 2, 3, 4, 7} {
			vs, weights := make([]Vector, n), make([]float64, n)
			for j := range vs {
				vs[j] = NewVector(dim)
				for i := range vs[j] {
					vs[j][i] = r.Norm()
				}
				if dim > 0 {
					vs[j][0] = negZero
				}
				weights[j] = r.Norm()
			}
			got, want := NewVector(dim), NewVector(dim)
			got.Fill(7) // overwritten, not accumulated into
			if err := WeightedSum(got, weights, vs); err != nil {
				t.Fatal(err)
			}
			for j, v := range vs {
				if err := want.AXPY(weights[j], v); err != nil {
					t.Fatal(err)
				}
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dim %d, %d terms: dst[%d] = %x, want %x", dim, n, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestWeightedSumChecksBeforeWriting: a mismatched later term leaves dst as
// it was.
func TestWeightedSumChecksBeforeWriting(t *testing.T) {
	dst := Vector{9, 9}
	err := WeightedSum(dst, []float64{1, 1}, []Vector{{1, 2}, {1, 2, 3}})
	if !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("err = %v, want ErrDimMismatch", err)
	}
	if dst[0] != 9 || dst[1] != 9 {
		t.Errorf("a rejected sum wrote dst = %v", dst)
	}
}

func TestWeightedSumPreservesConvexCombination(t *testing.T) {
	// Property: a convex combination of identical vectors is that vector.
	f := func(raw []float64, w1 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		v := Vector(raw)
		a := float64(w1%100) / 100.0
		dst := NewVector(len(v))
		if err := WeightedSum(dst, []float64{a, 1 - a}, []Vector{v, v}); err != nil {
			return false
		}
		for i := range dst {
			if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
				continue
			}
			if math.Abs(dst[i]-v[i]) > 1e-9*(1+math.Abs(v[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	dst := NewVector(2)
	if err := Lerp(dst, Vector{0, 0}, Vector{10, 20}, 0.5); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 5 || dst[1] != 10 {
		t.Errorf("dst = %v, want [5 10]", dst)
	}
	if err := Lerp(dst, Vector{0}, Vector{1, 2}, 0.5); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("err = %v, want ErrDimMismatch", err)
	}
}

func TestMaxAbs(t *testing.T) {
	if got := (Vector{-7, 3, 5}).MaxAbs(); got != 7 {
		t.Errorf("MaxAbs = %v, want 7", got)
	}
	if got := (Vector{}).MaxAbs(); got != 0 {
		t.Errorf("MaxAbs(empty) = %v, want 0", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vector{1, 2}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vector{math.Inf(1)}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestArgMax(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want int
	}{
		{name: "simple", v: Vector{1, 5, 3}, want: 1},
		{name: "tie goes low", v: Vector{5, 5}, want: 0},
		{name: "empty", v: Vector{}, want: -1},
		{name: "negative", v: Vector{-3, -1, -2}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.ArgMax(); got != tt.want {
				t.Errorf("ArgMax = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestZeroFill(t *testing.T) {
	v := Vector{1, 2}
	v.Fill(7)
	if v[0] != 7 || v[1] != 7 {
		t.Errorf("after Fill, v = %v", v)
	}
	v.Zero()
	if v[0] != 0 || v[1] != 0 {
		t.Errorf("after Zero, v = %v", v)
	}
}

func TestDotSymmetry(t *testing.T) {
	// Property: dot product is commutative.
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		x, err1 := Dot(Vector(a[:n]), Vector(b[:n]))
		y, err2 := Dot(Vector(b[:n]), Vector(a[:n]))
		if err1 != nil || err2 != nil {
			return false
		}
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAXPYSelfAlias(t *testing.T) {
	// v.AXPY(a, v) must behave as v *= (1+a): the loop reads each element
	// before writing it.
	v := Vector{1, 2, 3}
	if err := v.AXPY(1, v); err != nil {
		t.Fatal(err)
	}
	if v[0] != 2 || v[1] != 4 || v[2] != 6 {
		t.Errorf("self-aliased AXPY = %v, want [2 4 6]", v)
	}
}

func TestWeightedSumEmpty(t *testing.T) {
	dst := Vector{7, 7}
	if err := WeightedSum(dst, nil, nil); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 || dst[1] != 0 {
		t.Errorf("empty weighted sum should zero dst: %v", dst)
	}
}
