package core

import "hieradmo/internal/tensor"

// The AVX2 bodies of Leaf.Step and Tier.mean, in kernel_amd64.s. Each takes
// the whole blocks of four elements and returns how many elements it took;
// the Go loops in kernel.go run the rest.

// leafStepAVX2 is Step's loop over n elements, n % 4 == 0, n >= 4. It reads
// and writes through raw pointers: Step has checked every length.
//
//go:noescape
func leafStepAVX2(x, y, gradSum, ySum, grad *float64, n int, negEta, gamma, negGamma float64)

// tierMeanAVX2 is the mean's block loop over n elements, n % 4 == 0, n >= 4,
// for reporters >= 1: ys and xs point at the reporters' slice headers, each
// holding at least n elements, which the mean has checked.
//
//go:noescape
func tierMeanAVX2(yMinus, xPlus, yPlus *float64, n int, w *float64, ys, xs *tensor.Vector, reporters int, gamma, negGamma float64, momentum bool)

func leafStepVector(x, y, gradSum, ySum, grad []float64, negEta, gamma, negGamma float64) int {
	n4 := len(x) &^ 3
	if !vectorBodies || n4 == 0 {
		return 0
	}
	leafStepAVX2(&x[0], &y[0], &gradSum[0], &ySum[0], &grad[0], n4, negEta, gamma, negGamma)
	return n4
}

func meanVector(yMinus, xPlus, yPlus, w []float64, ys, xs []tensor.Vector, gamma float64, momentum bool) int {
	n4 := len(xPlus) &^ 3
	if !vectorBodies || n4 == 0 || len(w) == 0 {
		return 0
	}
	tierMeanAVX2(&yMinus[0], &xPlus[0], &yPlus[0], n4, &w[0], &ys[0], &xs[0], len(w), gamma, -gamma, momentum)
	return n4
}
