//go:build !amd64

package tensor

// No vector bodies on this architecture: every shape runs the portable loops.

func gemmBias(dst, a, b, bias []float64, m, n, k, kChunk int) {
	gemmBiasGeneric(dst, a, b, bias, m, n, k, kChunk)
}

func gemmAddTransB(dst, a, b []float64, m, n, k int) {
	gemmAddTransBGeneric(dst, a, b, m, n, k)
}

func gemmAdd(dst, a, b []float64, m, n, k int) {
	gemmAddGeneric(dst, a, b, m, n, k, 0)
}
