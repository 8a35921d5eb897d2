package tensor

import (
	"testing"

	"hieradmo/internal/rng"
)

// The raw GEMM rung of the benchmark ladder: the two conv kernels at the
// shapes model.NewCNN's two layers lower to on the 1×14×14 task, and the Dense
// weight gradient at the sync family's shape, in GFLOP/s
// (2·m·n·k operations a call), recorded in BENCH_kernels.json beside the
// internal/nn rows by `make bench` and gated by `make benchdiff`. The data is
// dense: a rate here is the kernel's, not the sparsity of a real gradient's.

func benchGEMM(b *testing.B, flops int, call func()) {
	b.Helper()
	call()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
	b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGEMMBias(b *testing.B) {
	for _, s := range []struct {
		name            string
		m, n, k, kChunk int
	}{
		{"conv1_8x196x9c9", 8, 196, 9, 9},
		{"conv2_16x49x72c9", 16, 49, 72, 9},
	} {
		b.Run(s.name, func(b *testing.B) {
			r := rng.New(1)
			a, bm, bias := make([]float64, s.m*s.k), make([]float64, s.k*s.n), make([]float64, s.m)
			fillRand(r, a)
			fillRand(r, bm)
			fillRand(r, bias)
			dst := make([]float64, s.m*s.n)
			benchGEMM(b, 2*s.m*s.n*s.k, func() {
				GEMMBias(dst, a, bm, bias, s.m, s.n, s.k, s.kChunk)
			})
		})
	}
}

// BenchmarkGEMMAddTransB is the conv weight gradient: m output channels,
// n = inC·3·3 patch rows, reduced over the k pixels of the output plane.
func BenchmarkGEMMAddTransB(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, n, k int
	}{
		{"conv1_8x9x196", 8, 9, 196},
		{"conv2_16x72x49", 16, 72, 49},
	} {
		b.Run(s.name, func(b *testing.B) {
			r := rng.New(1)
			a, bm := make([]float64, s.m*s.k), make([]float64, s.n*s.k)
			fillRand(r, a)
			fillRand(r, bm)
			dst := make([]float64, s.m*s.n)
			benchGEMM(b, 2*s.m*s.n*s.k, func() {
				GEMMAddTransB(dst, a, bm, s.m, s.n, s.k)
			})
		})
	}
}

// BenchmarkGEMMAdd is the logistic model's weight gradient over one
// mini-batch: 20 classes × 768 features, reduced over the batch's 8 samples.
func BenchmarkGEMMAdd(b *testing.B) {
	const m, n, k = 20, 768, 8
	b.Run("dense_20x768x8", func(b *testing.B) {
		r := rng.New(1)
		a, bm := make([]float64, m*k), make([]float64, k*n)
		fillRand(r, a)
		fillRand(r, bm)
		dst := make([]float64, m*n)
		benchGEMM(b, 2*m*n*k, func() {
			GEMMAdd(dst, a, bm, m, n, k)
		})
	})
}
