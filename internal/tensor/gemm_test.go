package tensor

import (
	"fmt"
	"math"
	"testing"

	"hieradmo/internal/rng"
)

// naiveGEMMBias mirrors GEMMBias's documented reduction order with plain
// scalar loops, so the test checks the blocked kernel bitwise, not within a
// tolerance.
func naiveGEMMBias(dst, a, b, bias []float64, m, n, k, kChunk int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := bias[i]
			if kChunk > 0 {
				for kc := 0; kc < k; kc += kChunk {
					ke := kc + kChunk
					if ke > k {
						ke = k
					}
					var s float64
					for kk := kc; kk < ke; kk++ {
						s += a[i*k+kk] * b[kk*n+j]
					}
					acc += s
				}
			} else {
				for kk := 0; kk < k; kk++ {
					acc += a[i*k+kk] * b[kk*n+j]
				}
			}
			dst[i*n+j] = acc
		}
	}
}

// naiveGEMMAddTransB is GEMMAddTransB's scalar definition; at k = 1 it reads
// dst[i,j] += a[i]·b[j].
func naiveGEMMAddTransB(dst, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := dst[i*n+j]
			for kk := 0; kk < k; kk++ {
				acc += a[i*k+kk] * b[j*k+kk]
			}
			dst[i*n+j] = acc
		}
	}
}

func fillRand(r *rng.RNG, v []float64) {
	for i := range v {
		v[i] = r.Norm()
	}
}

func TestGEMMBiasMatchesScalarOrder(t *testing.T) {
	r := rng.New(11)
	for _, tc := range []struct{ m, n, k, kChunk int }{
		{1, 1, 1, 0}, // n = 1, flat: a matrix-vector product
		{1, 1, 1, 1},
		{3, 4, 5, 0},
		{3, 5, 6, 2},  // n not a multiple of the 4-wide block
		{8, 64, 9, 9}, // conv-like: one chunk per input channel
		{16, 16, 72, 9},
		{2, 7, 10, 3}, // ragged final chunk
		{4, 1, 12, 4}, // single column, chunked
	} {
		a := make([]float64, tc.m*tc.k)
		b := make([]float64, tc.k*tc.n)
		bias := make([]float64, tc.m)
		fillRand(r, a)
		fillRand(r, b)
		fillRand(r, bias)
		got := make([]float64, tc.m*tc.n)
		want := make([]float64, tc.m*tc.n)
		GEMMBias(got, a, b, bias, tc.m, tc.n, tc.k, tc.kChunk)
		naiveGEMMBias(want, a, b, bias, tc.m, tc.n, tc.k, tc.kChunk)
		sameBits(t, fmt.Sprintf("%+v", tc), got, want)
	}
}

func TestGEMMAddTransBAccumulates(t *testing.T) {
	r := rng.New(23)
	for _, tc := range []struct{ m, n, k int }{
		{1, 1, 1},
		{2, 3, 4},
		{8, 72, 16}, // conv weight-gradient shape: outC × (inC·k·k) over P pixels
		{3, 9, 5},   // n not a multiple of 4
	} {
		a := make([]float64, tc.m*tc.k)
		b := make([]float64, tc.n*tc.k)
		fillRand(r, a)
		fillRand(r, b)
		got := make([]float64, tc.m*tc.n)
		want := make([]float64, tc.m*tc.n)
		fillRand(r, got)
		copy(want, got)
		GEMMAddTransB(got, a, b, tc.m, tc.n, tc.k)
		naiveGEMMAddTransB(want, a, b, tc.m, tc.n, tc.k)
		sameBits(t, fmt.Sprintf("%+v", tc), got, want)
	}
}

// TestGEMMZeroProductsAreIdentity pins the bit-identity contract the conv
// path relies on: interleaving ±0 products (padding cells, zero gradients)
// into a reduction never changes the accumulated bits, because chunk
// accumulators start at +0.
func TestGEMMZeroProductsAreIdentity(t *testing.T) {
	// One row, chunked: chunk 0 = {-3·0, 0·5}, chunk 1 = {2·4, -2·4}
	// (exact cancellation must give +0, keeping later adds bitwise stable).
	a := []float64{-3, 0, 2, -2}
	b := []float64{0, 5, 4, 4}
	bias := []float64{1.5}
	dst := make([]float64, 1)
	GEMMBias(dst, a, []float64{b[0], b[1], b[2], b[3]}, bias, 1, 1, 4, 2)
	// b laid out k×n with n=1: column vector — same slice.
	if dst[0] != 1.5 {
		t.Fatalf("dst = %v, want 1.5", dst[0])
	}
	// Dropping the zero-product terms entirely gives the same bits.
	dst2 := make([]float64, 1)
	GEMMBias(dst2, []float64{2, -2}, []float64{4, 4}, bias, 1, 1, 2, 2)
	if dst[0] != dst2[0] {
		t.Fatalf("zero products changed bits: %x vs %x", dst[0], dst2[0])
	}
}

// fillSigned draws what a Dense layer meets — negative and positive values —
// with the signed zeros the bit-identity contract is about mixed in.
func fillSigned(r *rng.RNG, v []float64) {
	for i := range v {
		switch r.Intn(8) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = r.Norm()
		}
	}
}

func sameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: dst[%d] = %x (%v), want %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// checkDenseKernels holds the two Dense shapes of an m×k layer to their
// scalar definitions, bit for bit: the forward pass GEMMBias(n = 1) — flat,
// or chunked when kChunk > 0, which must keep the chunked order — and the
// weight gradient GEMMAddTransB(k = 1) accumulating onto an existing dst.
// zeroRow, when in range, makes that output's gradient an exact zero (the
// softmax gradient of a saturated class) and its bias −0.
func checkDenseKernels(t testing.TB, r *rng.RNG, m, k, kChunk, zeroRow int) {
	t.Helper()
	w, x, bias := make([]float64, m*k), make([]float64, k), make([]float64, m)
	fillSigned(r, w)
	fillSigned(r, x)
	fillSigned(r, bias)
	g := make([]float64, m)
	fillSigned(r, g)
	if zeroRow >= 0 && zeroRow < m {
		g[zeroRow] = 0
		bias[zeroRow] = math.Copysign(0, -1)
	}

	got, want := make([]float64, m), make([]float64, m)
	GEMMBias(got, w, x, bias, m, 1, k, kChunk)
	naiveGEMMBias(want, w, x, bias, m, 1, k, kChunk)
	sameBits(t, "GEMMBias n=1", got, want)

	gw, gwWant := make([]float64, m*k), make([]float64, m*k)
	fillSigned(r, gw)
	copy(gwWant, gw)
	// Twice: a mini-batch extends each element's addition sequence.
	for pass := 0; pass < 2; pass++ {
		GEMMAddTransB(gw, g, x, m, k, 1)
		naiveGEMMAddTransB(gwWant, g, x, m, k, 1)
	}
	sameBits(t, "GEMMAddTransB k=1", gw, gwWant)
}

// TestDenseKernelsMatchScalarDefinitions is the bitwise oracle for the
// matrix-vector and rank-1 shapes of the two GEMMs: every row-block remainder
// against every reduction length the zoo uses, then seeded random shapes.
func TestDenseKernelsMatchScalarDefinitions(t *testing.T) {
	r := rng.New(19)
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 10, 20, 23} {
		for _, k := range []int{1, 2, 63, 768, 784} {
			checkDenseKernels(t, r, m, k, 0, -1)
			checkDenseKernels(t, r, m, k, 0, m/2)
		}
	}
	for draw := 0; draw < 200; draw++ {
		m, k := 1+r.Intn(24), 1+r.Intn(96)
		kChunk := 0
		if draw%4 == 3 {
			kChunk = 1 + r.Intn(k)
		}
		checkDenseKernels(t, r, m, k, kChunk, r.Intn(2*m)-m)
	}
}

// FuzzDenseKernelEquivalence lets the fuzzer pick the layer shape, the
// reduction tree and the data.
func FuzzDenseKernelEquivalence(f *testing.F) {
	f.Add(20, 768, 0, 3, uint64(1))
	f.Add(10, 784, 0, -1, uint64(2))
	f.Add(7, 9, 4, 0, uint64(3))
	f.Add(1, 1, 1, 0, uint64(4))
	f.Fuzz(func(t *testing.T, m, k, kChunk, zeroRow int, seed uint64) {
		// Bound the shape so a fuzzed input can't demand gigabytes.
		if m < 1 || m > 40 || k < 1 || k > 1024 || kChunk < 0 || kChunk > k {
			t.Skip()
		}
		checkDenseKernels(t, rng.New(seed), m, k, kChunk, zeroRow)
	})
}

// checkGEMMAdd holds GEMMAdd — the dispatching entry and the portable body —
// to its definition: k scalar rank-1 updates applied one after another onto a
// dst that already holds values, signed zeros among them. zeroRow, when in
// range, makes that row of A all ±0 — every product onto it is a signed zero
// — and its dst row alternate −0 and +0, the two accumulators on which the
// sign of a zero product shows.
func checkGEMMAdd(t testing.TB, r *rng.RNG, m, n, k, zeroRow int) {
	t.Helper()
	what := fmt.Sprintf("GEMMAdd m=%d n=%d k=%d zeroRow=%d", m, n, k, zeroRow)
	a, b := make([]float64, m*k), make([]float64, k*n)
	fillSigned(r, a)
	fillSigned(r, b)
	got, body, want := make([]float64, m*n), make([]float64, m*n), make([]float64, m*n)
	fillSigned(r, want)
	if zeroRow >= 0 && zeroRow < m {
		for kk := 0; kk < k; kk++ {
			a[zeroRow*k+kk] = math.Copysign(0, float64(1-2*(kk&1)))
		}
		for j := 0; j < n; j++ {
			want[zeroRow*n+j] = math.Copysign(0, float64(2*(j&1)-1))
		}
	}
	copy(got, want)
	copy(body, want)
	// Twice: a second block of samples extends each element's sequence.
	for pass := 0; pass < 2; pass++ {
		GEMMAdd(got, a, b, m, n, k)
		gemmAddGeneric(body, a, b, m, n, k, 0)
		for kk := 0; kk < k; kk++ {
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					want[i*n+j] += a[i*k+kk] * b[kk*n+j]
				}
			}
		}
	}
	sameBits(t, what, got, want)
	sameBits(t, what+" (portable body)", body, want)
}

// TestGEMMAddMatchesRankOneSequence: a Dense weight gradient over a block of
// k samples must be the k per-sample rank-1 updates, bit for bit — every
// row-block and column-tile remainder around the zoo's shapes, block sizes on
// both sides of one tile step, then seeded random shapes.
func TestGEMMAddMatchesRankOneSequence(t *testing.T) {
	r := rng.New(41)
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 767, 768}
	for _, m := range []int{1, 3, 4, 10, 20, 21} {
		for _, n := range ns {
			for _, k := range []int{1, 3, 8, 9} {
				checkGEMMAdd(t, r, m, n, k, -1)
				checkGEMMAdd(t, r, m, n, k, m/2)
			}
		}
	}
	for draw := 0; draw < 200; draw++ {
		m, n, k := 1+r.Intn(24), 1+r.Intn(60), 1+r.Intn(40)
		checkGEMMAdd(t, r, m, n, k, r.Intn(2*m)-m)
	}
}

// FuzzGEMMAddEquivalence lets the fuzzer pick the shape and the data.
func FuzzGEMMAddEquivalence(f *testing.F) {
	f.Add(20, 768, 8, 3, uint64(1))
	f.Add(10, 784, 1, -1, uint64(2))
	f.Add(21, 7, 9, 20, uint64(3))
	f.Add(1, 1, 1, 0, uint64(4))
	f.Fuzz(func(t *testing.T, m, n, k, zeroRow int, seed uint64) {
		// Bound the shape so a fuzzed input can't demand gigabytes.
		if m < 1 || m > 40 || n < 1 || n > 1024 || k < 1 || k > 64 {
			t.Skip()
		}
		checkGEMMAdd(t, rng.New(seed), m, n, k, zeroRow)
	})
}
