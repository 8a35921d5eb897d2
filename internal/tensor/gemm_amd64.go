package tensor

import "unsafe"

// hasAVX2 is decided once, at package initialisation, by asking the CPU: AVX2
// in CPUID leaf 7, and the operating system's promise (OSXSAVE, then XCR0
// bits 1 and 2 through XGETBV) to save the YMM state across context switches.
// A CPU or kernel without either runs the portable bodies; nothing else
// chooses.
var hasAVX2 = detectAVX2()

// useAVX2 selects the assembly bodies in gemm_amd64.s. It starts as the
// detection; tests clear it to run the portable bodies through the same entry
// points.
var useAVX2 = hasAVX2

// HasAVX2 reports the detection, for packages with AVX2 bodies of their own.
func HasAVX2() bool { return hasAVX2 }

func detectAVX2() bool {
	const (
		osxsave  = 1 << 27 // leaf 1 ECX
		avx      = 1 << 28 // leaf 1 ECX
		avx2     = 1 << 5  // leaf 7 EBX
		ymmState = 0x6     // XCR0: SSE and AVX state enabled
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmState != ymmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuid and xgetbv are the two instructions, in gemm_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gemmBiasAVX2 computes dst = A·B + bias·1ᵀ for m % 4 == 0, m >= 4, n >= 4,
// k >= 1, kChunk >= 0, in GEMMBias's reduction order. It reads and writes
// through raw pointers: the caller has checked every length.
//
//go:noescape
func gemmBiasAVX2(dst, a, b, bias *float64, m, n, k, kChunk int)

// gemmAddTransBAVX2 adds one staged panel into four rows of dst:
// dst[l, j] += Σ_kk at[kk*4+l] · b[j*k+kk] for l < 4, j < n, kk < kp,
// kk ascending, n >= 1, kp >= 1.
//
//go:noescape
func gemmAddTransBAVX2(dst *float64, n int, b *float64, k int, at *float64, kp int)

// gemmAddAVX2 adds A·B into the whole 4-column tiles of dst — columns
// 0..n&^3-1 of all m rows — for m % 4 == 0, m >= 4, n >= 4, k >= 1:
// dst[i, j] += Σ_kk a[i*k+kk] · b[kk*n+j], kk ascending.
//
//go:noescape
func gemmAddAVX2(dst, a, b *float64, m, n, k int)

// scaleAVX2 multiplies n elements from v by c, n % 4 == 0, n >= 4.
//
//go:noescape
func scaleAVX2(v *float64, n int, c float64)

// scale is Vector.Scale: the vector body takes the whole blocks of four
// elements, the portable loop the rest.
func scale(v []float64, c float64) {
	n4 := 0
	if useAVX2 && len(v) >= 4 {
		n4 = len(v) &^ 3
		scaleAVX2(&v[0], n4, c)
	}
	scaleGeneric(v[n4:], c)
}

// gemmBias is GEMMBias past the length checks.
// The vector body takes every whole block of four rows when there are four
// columns to fill a register; rows past the last block, and matrices narrower
// than a register, run the portable body.
func gemmBias(dst, a, b, bias []float64, m, n, k, kChunk int) {
	m4 := 0
	if useAVX2 && m >= 4 && n >= 4 && k >= 1 {
		if kChunk < 0 {
			kChunk = 0
		}
		m4 = m &^ 3
		gemmBiasAVX2(&dst[0], &a[0], &b[0], &bias[0], m4, n, k, kChunk)
	}
	if m4 < m {
		gemmBiasGeneric(dst[m4*n:], a[m4*k:], b, bias[m4:], m-m4, n, k, kChunk)
	}
}

// panelSteps is how many reduction steps of four rows of A gemmAddTransB
// stages at a time: 4 kB of stack, whatever the shape.
const panelSteps = 128

// gemmAddTransB is GEMMAddTransB past the length checks. Both operands run along the reduction axis, so consecutive memory
// is consecutive kk — one reduction, which a register must not split. The
// lanes are therefore four rows of dst: the four matching rows of A are
// staged transposed (at[kk*4+l] = a[i+l, kk]), a panel of panelSteps at a
// time, and the assembly broadcasts B against them. Cutting the reduction into
// panels is not a re-association: every element still starts from its dst
// value and takes its products one by one in ascending kk, and a float64 that
// is stored and reloaded between two panels is the same float64.
func gemmAddTransB(dst, a, b []float64, m, n, k int) {
	m4 := 0
	if useAVX2 && m >= 4 && n >= 1 && k >= 1 {
		m4 = m &^ 3
		// The assembly reads the panel four lanes — 32 bytes — at a time; a
		// stack array is only 8-byte aligned, and a panel that starts
		// mid-line splits every other load across two cache lines.
		var buf [4*panelSteps + 3]float64
		at := buf[(-uintptr(unsafe.Pointer(&buf[0]))&31)/8:][:4*panelSteps]
		for i := 0; i < m4; i += 4 {
			for k0 := 0; k0 < k; k0 += panelSteps {
				kp := min(panelSteps, k-k0)
				a0 := a[i*k+k0:][:kp]
				a1 := a[(i+1)*k+k0:][:kp]
				a2 := a[(i+2)*k+k0:][:kp]
				a3 := a[(i+3)*k+k0:][:kp]
				for kk := range a0 {
					lanes := at[4*kk : 4*kk+4 : 4*kk+4]
					lanes[0] = a0[kk]
					lanes[1] = a1[kk]
					lanes[2] = a2[kk]
					lanes[3] = a3[kk]
				}
				gemmAddTransBAVX2(&dst[i*n], n, &b[k0], k, &at[0], kp)
			}
		}
	}
	if m4 < m {
		gemmAddTransBGeneric(dst[m4*n:], a[m4*k:], b, m-m4, n, k)
	}
}

// gemmAdd is GEMMAdd past the length checks. The vector body takes every
// whole 4 × 4 tile; the n mod 4 columns beside the tiles and the m mod 4 rows
// below them run the portable body. Unlike gemmBias it cannot move the last
// tile left to cover a ragged edge: the accumulators are loaded from dst, so
// a column computed twice would be added twice.
func gemmAdd(dst, a, b []float64, m, n, k int) {
	m4, n4 := 0, 0
	if useAVX2 && m >= 4 && n >= 4 && k >= 1 {
		m4, n4 = m&^3, n&^3
		gemmAddAVX2(&dst[0], &a[0], &b[0], m4, n, k)
		if n4 < n {
			gemmAddGeneric(dst, a, b, m4, n, k, n4)
		}
	}
	if m4 < m {
		gemmAddGeneric(dst[m4*n:], a[m4*k:], b, m-m4, n, k, 0)
	}
}
