package tensor

import (
	"testing"

	"hieradmo/internal/rng"
)

// TestDispatchWithoutAVX2 runs the amd64 dispatch the way a CPU without AVX2
// does — useAVX2 false, every row on the portable bodies — at the conv and
// Dense shapes and a ragged one of each, and Scale at the sync model's
// dimension and a ragged one. The detection itself cannot be faked from a
// test; what this pins is that nothing but the detected flag routes a call.
func TestDispatchWithoutAVX2(t *testing.T) {
	defer func(was bool) { useAVX2 = was }(useAVX2)
	useAVX2 = false
	r := rng.New(37)
	for _, s := range []struct{ m, n, k int }{{8, 196, 9}, {16, 49, 72}, {17, 9, 196}, {5, 6, 7}} {
		checkVectorKernels(t, r, s.m, s.n, s.k, 9, 2)
	}
	for _, s := range []struct{ m, n, k int }{{20, 768, 8}, {10, 784, 1}, {21, 9, 3}} {
		checkGEMMAdd(t, r, s.m, s.n, s.k, 2)
	}
	for _, n := range []int{15380, 7} {
		checkScale(t, r, n, 1, 0.125)
	}
}
