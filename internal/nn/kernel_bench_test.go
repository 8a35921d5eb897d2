package nn

import (
	"fmt"
	"testing"

	"hieradmo/internal/rng"
)

// Layer rows of the kernel benchmarks: each element-wise pass with a vector
// body, alone, at the shapes the zoo's CNN trains — the pools at their two
// inputs, 8×14×14 and 16×7×7, and the ReLU passes and bias sums at the two
// conv outputs, the same shapes. Inputs are what training hands each pass:
// half zeros, half positive after a ReLU; dense normal gradients. Each row is
// recorded in BENCH_kernels.json by `make bench`.

// kernelShapes are the zoo CNN's two conv outputs, which are also its two
// pool inputs.
var kernelShapes = []Shape3{{C: 8, H: 14, W: 14}, {C: 16, H: 7, W: 7}}

// kernelWarmup is the untimed calls before a row's timed ones: a pass is
// hundreds of nanoseconds, and the first calls of a process run slower than
// the steady state.
const kernelWarmup = 2000

// benchKernel times step at each shape after kernelWarmup untimed calls.
func benchKernel(b *testing.B, step func(sh Shape3) func()) {
	for _, sh := range kernelShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", sh.C, sh.H, sh.W), func(b *testing.B) {
			f := step(sh)
			for i := 0; i < kernelWarmup; i++ {
				f()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f()
			}
		})
	}
}

// rectified returns n values, half +0 and half positive, as a ReLU leaves them.
func rectified(r *rng.RNG, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if v := r.Norm(); v > 0 {
			x[i] = v
		}
	}
	return x
}

// normals returns n standard normal values.
func normals(r *rng.RNG, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Norm()
	}
	return x
}

func BenchmarkPoolForward(b *testing.B) {
	benchKernel(b, func(sh Shape3) func() {
		p := NewMaxPool2D(sh)
		in := rectified(rng.New(1), sh.Size())
		out, idx := make([]float64, p.OutShape().Size()), make([]float64, p.ScratchSize())
		return func() { p.Forward(nil, in, out, idx) }
	})
}

func BenchmarkPoolBackward(b *testing.B) {
	benchKernel(b, func(sh Shape3) func() {
		p := NewMaxPool2D(sh)
		r := rng.New(1)
		in := rectified(r, sh.Size())
		out, idx := make([]float64, p.OutShape().Size()), make([]float64, p.ScratchSize())
		p.Forward(nil, in, out, idx)
		gradOut, gradIn := normals(r, len(out)), make([]float64, len(in))
		return func() { p.Backward(nil, in, out, gradOut, nil, gradIn, idx) }
	})
}

// BenchmarkReLURectify rectifies a fresh copy of the conv output per call;
// the copy is timed too, as it is the same few hundred bytes a call.
func BenchmarkReLURectify(b *testing.B) {
	benchKernel(b, func(sh Shape3) func() {
		src := normals(rng.New(1), sh.Size())
		x := make([]float64, len(src))
		return func() {
			copy(x, src)
			rectify(x)
		}
	})
}

// BenchmarkReLUGate gates a fresh copy of the gradient per call, the copy
// timed too.
func BenchmarkReLUGate(b *testing.B) {
	benchKernel(b, func(sh Shape3) func() {
		r := rng.New(1)
		out, src := rectified(r, sh.Size()), normals(r, sh.Size())
		g := make([]float64, len(src))
		return func() {
			copy(g, src)
			gate(g, out)
		}
	})
}

func BenchmarkBiasSums(b *testing.B) {
	benchKernel(b, func(sh Shape3) func() {
		grad, gb := normals(rng.New(1), sh.Size()), make([]float64, sh.C)
		return func() { biasSums(gb, grad, sh.H*sh.W) }
	})
}
