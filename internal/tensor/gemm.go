package tensor

// Matrix kernels shared by the neural-network layers (internal/nn routes
// Dense and the im2col Conv2D path through them): GEMMBias (dst = A·B + bias),
// GEMMAddTransB (dst += A·Bᵀ) and GEMMAdd (dst += A·B).
//
// Each has two bodies. gemmBiasGeneric, gemmAddTransBGeneric and
// gemmAddGeneric below are the portable ones: they run on every GOARCH and on
// amd64 CPUs without AVX2, and they are the oracle the vector bodies are
// tested against (TestVectorKernelsMatchGeneric and
// TestGEMMAddMatchesRankOneSequence call them directly). On amd64 with AVX2,
// gemmBias, gemmAddTransB and gemmAdd (gemm_amd64.go) hand whole 4-row blocks
// to the assembly in gemm_amd64.s, which widens the blocking rule below from
// four scalar accumulators to four vector ones: a lane is a distinct
// destination element, never a slice of one reduction.
//
// All kernels are deterministic: for every destination element the
// floating-point additions happen in one fixed sequence, independent of
// blocking. The 4-wide column blocking keeps four independent accumulators
// in registers — it widens the dst stride per pass, never the reduction
// order — so results are bitwise identical to the scalar column loop. Every
// update is spelled acc += a * b, so a compiler that contracts multiply-add
// on another architecture treats all of them alike.
//
// Bit-identity contract (relied on by the golden-trace tests): callers that
// replace a skip-on-zero scalar loop with these kernels stay bitwise
// identical for finite inputs, because an accumulator that starts at +0 can
// never become -0 through addition (IEEE-754 round-to-nearest: exact
// cancellation yields +0, and +0 + -0 = +0), so adding a ±0 product — a
// padding cell or a zero gradient — never changes the accumulator's bits.
// Inf/NaN inputs void the contract (0·Inf = NaN); the training stack only
// produces finite values.

// GEMMBias computes dst = A·B + bias·1ᵀ for row-major A (m×k), B (k×n) and
// dst (m×n), with bias[i] added as the initial value of row i's accumulator.
//
// kChunk controls the reduction tree. With kChunk = 0 each element is one
// flat sum: dst[i,j] = bias[i] + Σ_kk A[i,kk]·B[kk,j], kk ascending. With
// kChunk > 0 the K dimension is cut into consecutive chunks of that length;
// each chunk is summed into its own sub-accumulator (starting at 0) before
// being added to the running total. The chunked mode reproduces the
// summation order of a per-input-channel convolution loop (chunk length
// k·k), which is what keeps the im2col path bitwise identical to the naive
// nested loops.
//
// Operands shorter than the shape (dst and a of m rows, b of k, bias of m
// elements) panic before anything is written.
func GEMMBias(dst, a, b, bias []float64, m, n, k, kChunk int) {
	holds(dst, m*n)
	holds(a, m*k)
	holds(b, k*n)
	holds(bias, m)
	gemmBias(dst, a, b, bias, m, n, k, kChunk)
}

// holds panics the way an out-of-range index does unless s has n elements.
// The exported kernels check every operand with it once, up front: the
// assembly bodies read and write through raw pointers, so a short slice must
// stop the call here, and the portable bodies then fail the same way — before
// the first store, not at the row that runs off the end.
func holds(s []float64, n int) {
	if n > len(s) {
		_ = s[n-1]
	}
}

// gemmBiasGeneric is GEMMBias's portable body and the vector body's oracle.
func gemmBiasGeneric(dst, a, b, bias []float64, m, n, k, kChunk int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		d := dst[i*n : (i+1)*n]
		bi := bias[i]
		j := 0
		for ; j+4 <= n; j += 4 {
			acc0, acc1, acc2, acc3 := bi, bi, bi, bi
			if kChunk > 0 {
				off := j // running row offset, replaces a kk·n multiply per tap
				for kc := 0; kc < k; kc += kChunk {
					ke := kc + kChunk
					if ke > k {
						ke = k
					}
					var s0, s1, s2, s3 float64
					for kk := kc; kk < ke; kk++ {
						w := ar[kk]
						br := b[off : off+4 : off+4]
						off += n
						s0 += w * br[0]
						s1 += w * br[1]
						s2 += w * br[2]
						s3 += w * br[3]
					}
					acc0 += s0
					acc1 += s1
					acc2 += s2
					acc3 += s3
				}
			} else {
				off := j
				for kk := 0; kk < k; kk++ {
					w := ar[kk]
					br := b[off : off+4 : off+4]
					off += n
					acc0 += w * br[0]
					acc1 += w * br[1]
					acc2 += w * br[2]
					acc3 += w * br[3]
				}
			}
			d[j] = acc0
			d[j+1] = acc1
			d[j+2] = acc2
			d[j+3] = acc3
		}
		for ; j < n; j++ {
			acc := bi
			if kChunk > 0 {
				off := j
				for kc := 0; kc < k; kc += kChunk {
					ke := kc + kChunk
					if ke > k {
						ke = k
					}
					var s float64
					for kk := kc; kk < ke; kk++ {
						s += ar[kk] * b[off]
						off += n
					}
					acc += s
				}
			} else {
				off := j
				for kk := 0; kk < k; kk++ {
					acc += ar[kk] * b[off]
					off += n
				}
			}
			d[j] = acc
		}
	}
}

// GEMMAddTransB accumulates dst += A·Bᵀ for row-major A (m×k), B (n×k) and
// dst (m×n). Each element's accumulator starts from the existing dst value
// and adds the K products in ascending kk order, so repeated calls extend
// the same per-element addition sequence — exactly how a convolution's
// weight gradient accumulates across the samples of a mini-batch.
//
// Operands shorter than the shape panic before anything is written.
func GEMMAddTransB(dst, a, b []float64, m, n, k int) {
	holds(dst, m*n)
	holds(a, m*k)
	holds(b, n*k)
	gemmAddTransB(dst, a, b, m, n, k)
}

// gemmAddTransBGeneric is GEMMAddTransB's portable body and the vector body's
// oracle.
func gemmAddTransBGeneric(dst, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		d := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			acc0, acc1, acc2, acc3 := d[j], d[j+1], d[j+2], d[j+3]
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			for kk, w := range ar {
				acc0 += w * b0[kk]
				acc1 += w * b1[kk]
				acc2 += w * b2[kk]
				acc3 += w * b3[kk]
			}
			d[j] = acc0
			d[j+1] = acc1
			d[j+2] = acc2
			d[j+3] = acc3
		}
		for ; j < n; j++ {
			acc := d[j]
			br := b[j*k : (j+1)*k]
			for kk, w := range ar {
				acc += w * br[kk]
			}
			d[j] = acc
		}
	}
}

// GEMMAdd accumulates dst += A·B for row-major A (m×k), B (k×n) and dst
// (m×n). Each element's accumulator starts from the existing dst value and
// adds the K products in ascending kk order: the call is bitwise the K rank-1
// updates dst += A[:,kk]·B[kk,:] applied one after another, and repeated calls
// extend the same per-element addition sequence. With the samples of a
// mini-batch along K this is a Dense layer's weight gradient, Σ_s g_s·x_sᵀ,
// reading the inputs in their natural sample-major layout.
//
// Operands shorter than the shape panic before anything is written.
func GEMMAdd(dst, a, b []float64, m, n, k int) {
	holds(dst, m*n)
	holds(a, m*k)
	holds(b, k*n)
	gemmAdd(dst, a, b, m, n, k)
}

// gemmAddGeneric is GEMMAdd's portable body and the vector body's oracle, over
// columns j0..n-1 of every row: the vector body takes whole 4-column tiles
// and leaves it the strip to their right.
func gemmAddGeneric(dst, a, b []float64, m, n, k, j0 int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		d := dst[i*n : (i+1)*n]
		j := j0
		for ; j+4 <= n; j += 4 {
			acc0, acc1, acc2, acc3 := d[j], d[j+1], d[j+2], d[j+3]
			off := j
			for _, w := range ar {
				br := b[off : off+4 : off+4]
				off += n
				acc0 += w * br[0]
				acc1 += w * br[1]
				acc2 += w * br[2]
				acc3 += w * br[3]
			}
			d[j] = acc0
			d[j+1] = acc1
			d[j+2] = acc2
			d[j+3] = acc3
		}
		for ; j < n; j++ {
			acc := d[j]
			off := j
			for _, w := range ar {
				acc += w * b[off]
				off += n
			}
			d[j] = acc
		}
	}
}
