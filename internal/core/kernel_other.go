//go:build !amd64

package core

import "hieradmo/internal/tensor"

// No vector bodies on this architecture: Step and the mean run the Go loops
// in kernel.go over every element.

func leafStepVector(x, y, gradSum, ySum, grad []float64, negEta, gamma, negGamma float64) int {
	return 0
}

func meanVector(yMinus, xPlus, yPlus, w []float64, ys, xs []tensor.Vector, gamma float64, momentum bool) int {
	return 0
}
