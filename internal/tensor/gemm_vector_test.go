package tensor

import (
	"fmt"
	"math"
	"testing"

	"hieradmo/internal/rng"
)

// The dispatching GEMMBias and GEMMAddTransB against their portable bodies,
// bit for bit (GEMMAdd's counterpart is checkGEMMAdd, in gemm_test.go).
// On amd64 with AVX2 the left side is the assembly and the right side the
// pure-Go loops, called directly; anywhere else both sides are the same code
// and the tests pass trivially, which is the point: no switch selects a body,
// so none is needed to test one.

// checkVectorKernels runs one shape through GEMMBias and GEMMAddTransB. zeroRow, when in range, makes
// that row of A all zeros — every product in its reductions is ±0 — and its
// bias −0, the accumulator the ±0-product contract is about.
func checkVectorKernels(t testing.TB, r *rng.RNG, m, n, k, kChunk, zeroRow int) {
	t.Helper()
	what := fmt.Sprintf("m=%d n=%d k=%d kChunk=%d zeroRow=%d", m, n, k, kChunk, zeroRow)
	a, b, bias := make([]float64, m*k), make([]float64, k*n), make([]float64, m)
	fillSigned(r, a)
	fillSigned(r, b)
	fillSigned(r, bias)
	if zeroRow >= 0 && zeroRow < m {
		for kk := 0; kk < k; kk++ {
			a[zeroRow*k+kk] = 0
		}
		bias[zeroRow] = math.Copysign(0, -1)
	}
	got, want := make([]float64, m*n), make([]float64, m*n)
	fillRand(r, got) // GEMMBias overwrites: stale values must not leak through
	GEMMBias(got, a, b, bias, m, n, k, kChunk)
	gemmBiasGeneric(want, a, b, bias, m, n, k, kChunk)
	sameBits(t, "GEMMBias "+what, got, want)

	// The same n·k values reread as GEMMAddTransB's B, n rows of k. Twice: a
	// mini-batch extends each element's addition sequence.
	g, gWant := make([]float64, m*n), make([]float64, m*n)
	fillSigned(r, g)
	copy(gWant, g)
	for pass := 0; pass < 2; pass++ {
		GEMMAddTransB(g, a, b, m, n, k)
		gemmAddTransBGeneric(gWant, a, b, m, n, k)
	}
	sameBits(t, "GEMMAddTransB "+what, g, gWant)
}

func TestVectorKernelsMatchGeneric(t *testing.T) {
	r := rng.New(29)
	var ns []int
	for n := 1; n <= 21; n++ {
		ns = append(ns, n) // every column-remainder class, below and above one tile
	}
	ns = append(ns, 48, 49, 196)
	for _, m := range []int{1, 3, 8, 16, 17} {
		for _, n := range ns {
			for _, k := range []int{1, 8, 9, 10, 72} {
				for _, kChunk := range []int{0, 4, 9, k, k + 1} {
					checkVectorKernels(t, r, m, n, k, kChunk, -1)
				}
				checkVectorKernels(t, r, m, n, k, 9, m/2)
			}
		}
	}
	// Reductions one step short of, exactly, one step past and more than
	// twice the 128-step panel the amd64 weight-gradient body stages at a time.
	for _, k := range []int{127, 128, 129, 259} {
		checkVectorKernels(t, r, 8, 9, k, 9, 3)
	}
	for draw := 0; draw < 200; draw++ {
		m, n, k := 1+r.Intn(24), 1+r.Intn(60), 1+r.Intn(300)
		checkVectorKernels(t, r, m, n, k, r.Intn(k+2), r.Intn(2*m)-m)
	}
}

// FuzzVectorKernelEquivalence lets the fuzzer pick the shape, the reduction
// tree and the data.
func FuzzVectorKernelEquivalence(f *testing.F) {
	f.Add(8, 196, 9, 9, -1, uint64(1))
	f.Add(16, 49, 72, 9, 3, uint64(2))
	f.Add(8, 9, 196, 0, 0, uint64(3))
	f.Add(17, 5, 129, 4, 16, uint64(4))
	f.Fuzz(func(t *testing.T, m, n, k, kChunk, zeroRow int, seed uint64) {
		// Bound the shape so a fuzzed input can't demand gigabytes.
		if m < 1 || m > 40 || n < 1 || n > 256 || k < 1 || k > 512 || kChunk < 0 || kChunk > k+1 {
			t.Skip()
		}
		checkVectorKernels(t, rng.New(seed), m, n, k, kChunk, zeroRow)
	})
}

// TestGEMMShortSlicesPanicBeforeWriting: the assembly stores through raw
// pointers, so a length mismatch has to stop at the call. Each operand in
// turn is one element short; the call must panic and dst must be untouched —
// on the conv shapes (vector bodies where there are any), a ragged one
// (portable body) and the Dense shapes (one column, one reduction step, a
// block of samples along the reduction).
func TestGEMMShortSlicesPanicBeforeWriting(t *testing.T) {
	panics := func(what string, dst []float64, call func()) {
		t.Helper()
		before := append([]float64(nil), dst...)
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
			for i := range before {
				if math.Float64bits(dst[i]) != math.Float64bits(before[i]) {
					t.Fatalf("%s: dst[%d] written before the panic", what, i)
				}
			}
		}()
		call()
	}
	short := func(v []float64) []float64 { return v[:len(v)-1] }
	r := rng.New(31)
	for _, s := range []struct{ m, n, k, kChunk int }{
		{8, 196, 9, 9}, {16, 49, 72, 9}, {3, 5, 6, 2}, {20, 1, 768, 0},
	} {
		what := fmt.Sprintf("GEMMBias %+v", s)
		a, b, bias := make([]float64, s.m*s.k), make([]float64, s.k*s.n), make([]float64, s.m)
		dst := make([]float64, s.m*s.n)
		fillRand(r, dst)
		panics(what+" short dst", short(dst), func() { GEMMBias(short(dst), a, b, bias, s.m, s.n, s.k, s.kChunk) })
		panics(what+" short a", dst, func() { GEMMBias(dst, short(a), b, bias, s.m, s.n, s.k, s.kChunk) })
		panics(what+" short b", dst, func() { GEMMBias(dst, a, short(b), bias, s.m, s.n, s.k, s.kChunk) })
		panics(what+" short bias", dst, func() { GEMMBias(dst, a, b, short(bias), s.m, s.n, s.k, s.kChunk) })
	}
	for _, s := range []struct{ m, n, k int }{
		{8, 9, 196}, {16, 72, 49}, {3, 9, 5}, {20, 768, 1},
	} {
		what := fmt.Sprintf("GEMMAddTransB %+v", s)
		a, b := make([]float64, s.m*s.k), make([]float64, s.n*s.k)
		dst := make([]float64, s.m*s.n)
		fillRand(r, a)
		fillRand(r, b)
		fillRand(r, dst)
		panics(what+" short dst", short(dst), func() { GEMMAddTransB(short(dst), a, b, s.m, s.n, s.k) })
		panics(what+" short a", dst, func() { GEMMAddTransB(dst, short(a), b, s.m, s.n, s.k) })
		panics(what+" short b", dst, func() { GEMMAddTransB(dst, a, short(b), s.m, s.n, s.k) })
	}
	for _, s := range []struct{ m, n, k int }{
		{20, 768, 8}, {21, 9, 3}, {10, 784, 1},
	} {
		what := fmt.Sprintf("GEMMAdd %+v", s)
		a, b := make([]float64, s.m*s.k), make([]float64, s.k*s.n)
		dst := make([]float64, s.m*s.n)
		fillRand(r, a)
		fillRand(r, b)
		fillRand(r, dst)
		panics(what+" short dst", short(dst), func() { GEMMAdd(short(dst), a, b, s.m, s.n, s.k) })
		panics(what+" short a", dst, func() { GEMMAdd(dst, short(a), b, s.m, s.n, s.k) })
		panics(what+" short b", dst, func() { GEMMAdd(dst, a, short(b), s.m, s.n, s.k) })
	}
}
