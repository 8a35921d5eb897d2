package nn

import (
	"math"
	"testing"

	"hieradmo/internal/rng"
)

// convGeometries is the equivalence shape table. It deliberately includes
// the degenerate corners: padding equal to and exceeding the input size,
// 1×1 kernels (the patch-free fast path), even kernel sizes, kernels the
// size of the whole input, and single-pixel outputs.
var convGeometries = []struct {
	name string
	in   Shape3
	outC int
	k    int
	pad  int
}{
	{"cnn-first", Shape3{C: 1, H: 8, W: 8}, 8, 3, 1},
	{"cnn-second", Shape3{C: 8, H: 4, W: 4}, 16, 3, 1},
	{"no-pad", Shape3{C: 3, H: 6, W: 5}, 4, 3, 0},
	{"one-by-one", Shape3{C: 4, H: 5, W: 5}, 6, 1, 0},
	{"one-by-one-padded", Shape3{C: 2, H: 3, W: 3}, 3, 1, 1},
	{"even-kernel", Shape3{C: 2, H: 6, W: 6}, 3, 2, 0},
	{"even-kernel-padded", Shape3{C: 2, H: 5, W: 4}, 3, 4, 2},
	{"pad-at-input-size", Shape3{C: 2, H: 3, W: 3}, 2, 3, 3},
	{"pad-over-input-size", Shape3{C: 1, H: 2, W: 2}, 2, 3, 4},
	{"single-pixel-out", Shape3{C: 2, H: 4, W: 4}, 3, 4, 0},
	{"single-pixel-in", Shape3{C: 3, H: 1, W: 1}, 2, 1, 0},
	{"wide-kernel-thin-input", Shape3{C: 1, H: 1, W: 7}, 2, 3, 1},
}

// equivZeroFracs are the shares of exact zeros drawn into gradOut: dense,
// the sparsity the zoo's conv layers see after max-pool and ReLU (0.3 and
// 0.85), and a gradient with no non-zero entry at all.
var equivZeroFracs = []float64{0, 0.3, 0.85, 1}

// runConvEquiv drives one geometry with seeded data through both paths and
// fails on the first differing bit; zeroFrac is the share of gradOut entries
// drawn as exact zeros.
func runConvEquiv(t *testing.T, in Shape3, outC, k, pad int, seed uint64, zeroFrac float64) {
	t.Helper()
	c, params, x, r := convFixture(t, in, outC, k, pad, seed)
	gradOut := make([]float64, c.OutShape().Size())
	for i := range gradOut {
		// A sparse gradient exercises the reference's zero-skip branch
		// against the kernels' ±0-product contract.
		if r.Float64() < zeroFrac {
			gradOut[i] = 0
		} else {
			gradOut[i] = r.Norm()
		}
	}
	outGEMM := checkConvBackward(t, c, params, x, gradOut, r, true)
	outRef := make([]float64, len(gradOut))
	c.forwardRef(params, x, outRef)
	for i := range outRef {
		if math.Float64bits(outRef[i]) != math.Float64bits(outGEMM[i]) {
			t.Fatalf("forward out[%d]: ref %x gemm %x", i, outRef[i], outGEMM[i])
		}
	}
}

// convFixture builds a validated layer with seeded parameters and input, and
// returns the generator for the caller's further draws.
func convFixture(t *testing.T, in Shape3, outC, k, pad int, seed uint64) (*Conv2D, []float64, []float64, *rng.RNG) {
	t.Helper()
	c := NewConv2D(in, outC, k, pad)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	params := make([]float64, c.ParamCount())
	c.Init(params, r)
	x := make([]float64, in.Size())
	for i := range x {
		x[i] = r.Norm()
	}
	return c, params, x, r
}

// checkConvBackward runs Forward and Backward on a scratch region that starts
// out NaN everywhere — so a list or plane Backward reads before writing shows
// — against backwardRef, and fails on the first input-gradient bit that
// differs. With finite set (gradOut holds no NaN or ±Inf) it holds gradParams
// to the reference bits as well. Without, a NaN in the input gradient only
// has to be a NaN: which of two NaN operands an addition passes on is the
// hardware's choice of operand order, and Go does not fix the operand order
// of a commutative operation, so no two compilations of one loop are bound to
// agree on NaN payloads. It returns the forward output.
func checkConvBackward(t *testing.T, c *Conv2D, params, x, gradOut []float64, r *rng.RNG, finite bool) []float64 {
	t.Helper()
	scratch := make([]float64, c.ScratchSize())
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	out := make([]float64, len(gradOut))
	c.Forward(params, x, out, scratch)

	// Non-zero starting gradients check the accumulate-into semantics.
	gpRef := make([]float64, c.ParamCount())
	gpGEMM := make([]float64, c.ParamCount())
	for i := range gpRef {
		gpRef[i] = r.Norm() * 0.01
	}
	copy(gpGEMM, gpRef)
	giRef := make([]float64, len(x))
	giGEMM := make([]float64, len(x))
	gradOut2 := make([]float64, len(gradOut))
	copy(gradOut2, gradOut)
	c.backwardRef(params, x, gradOut, gpRef, giRef)
	c.Backward(params, x, out, gradOut2, gpGEMM, giGEMM, scratch)
	for i := range gpRef {
		if finite && math.Float64bits(gpRef[i]) != math.Float64bits(gpGEMM[i]) {
			t.Fatalf("backward gradParams[%d]: ref %x gemm %x", i, gpRef[i], gpGEMM[i])
		}
	}
	for i := range giRef {
		if !finite && math.IsNaN(giRef[i]) && math.IsNaN(giGEMM[i]) {
			continue
		}
		if math.Float64bits(giRef[i]) != math.Float64bits(giGEMM[i]) {
			t.Fatalf("backward gradIn[%d]: ref %v (%#x) gemm %v (%#x)", i, giRef[i], math.Float64bits(giRef[i]), giGEMM[i], math.Float64bits(giGEMM[i]))
		}
	}
	return out
}

func TestConvGEMMEquivalenceTable(t *testing.T) {
	for _, g := range convGeometries {
		t.Run(g.name, func(t *testing.T) {
			for _, zf := range equivZeroFracs {
				for seed := uint64(1); seed <= 5; seed++ {
					runConvEquiv(t, g.in, g.outC, g.k, g.pad, seed, zf)
				}
			}
		})
	}
}

// TestConvInputGradientSparsityEdges holds the input-gradient scatter to the
// reference where its compacted lists are at their edges — one entry per
// output channel, at the first or the last pixel of the plane — and where the
// zero test itself is the question: −0 compares equal to zero and is skipped
// like +0.
func TestConvInputGradientSparsityEdges(t *testing.T) {
	for _, tc := range []struct {
		name string
		fill func(g []float64, P int, r *rng.RNG)
	}{
		{"first-pixel-only", func(g []float64, P int, r *rng.RNG) {
			for i := 0; i < len(g); i += P {
				g[i] = r.Norm()
			}
		}},
		{"last-pixel-only", func(g []float64, P int, r *rng.RNG) {
			for i := P - 1; i < len(g); i += P {
				g[i] = r.Norm()
			}
		}},
		{"signed-zeros", func(g []float64, _ int, r *rng.RNG) {
			for i := range g {
				switch u := r.Float64(); {
				case u < 0.4:
					g[i] = math.Copysign(0, -1)
				case u < 0.7:
					g[i] = 0
				default:
					g[i] = r.Norm()
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, g := range convGeometries {
				for seed := uint64(1); seed <= 3; seed++ {
					c, params, x, r := convFixture(t, g.in, g.outC, g.k, g.pad, seed)
					gradOut := make([]float64, c.OutShape().Size())
					tc.fill(gradOut, c.OutShape().H*c.OutShape().W, r)
					checkConvBackward(t, c, params, x, gradOut, r, true)
				}
			}
		})
	}
}

// TestConvInputGradientNonFinite: the input gradient is the reference's for
// every gradOut, not only finite ones — NaN is not equal to zero and is kept,
// ±Inf meets the same taps in the same order, and every cell that is not NaN
// has the reference's bits (NaN payloads, see checkConvBackward). The weight
// gradient is not held here: its GEMM adds the ±0 products the reference
// skips, and 0·Inf is NaN (its bitwise contract is finite-only).
func TestConvInputGradientNonFinite(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for _, g := range convGeometries {
		t.Run(g.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				c, params, x, r := convFixture(t, g.in, g.outC, g.k, g.pad, seed)
				gradOut := make([]float64, c.OutShape().Size())
				for i := range gradOut {
					if u := r.Float64(); u < 0.3 {
						gradOut[i] = special[int(u/0.3*float64(len(special)))]
					} else if u < 0.7 {
						gradOut[i] = r.Norm()
					}
				}
				checkConvBackward(t, c, params, x, gradOut, r, false)
			}
		})
	}
}

// TestConvReLUFusionBitwise checks the fused conv2d+relu layer against the
// unfused pair, forward and backward.
func TestConvReLUFusionBitwise(t *testing.T) {
	in := Shape3{C: 2, H: 6, W: 6}
	conv := NewConv2D(in, 4, 3, 1)
	relu := NewReLU(conv.OutShape())
	fused := fuseConvReLU(conv, relu)
	if fused == nil {
		t.Fatal("conv+relu did not fuse")
	}
	if fused.ParamCount() != conv.ParamCount() {
		t.Fatalf("fused ParamCount %d, want %d", fused.ParamCount(), conv.ParamCount())
	}

	r := rng.New(99)
	params := make([]float64, conv.ParamCount())
	fused.Init(params, r)
	paramsRef := make([]float64, conv.ParamCount())
	conv.Init(paramsRef, rng.New(99))
	for i := range params {
		if params[i] != paramsRef[i] {
			t.Fatal("fused Init changed the parameter stream")
		}
	}

	x := make([]float64, in.Size())
	for i := range x {
		x[i] = r.Norm()
	}
	outSize := conv.OutShape().Size()
	scratch := make([]float64, conv.ScratchSize())

	pre := make([]float64, outSize)
	outRef := make([]float64, outSize)
	conv.Forward(params, x, pre, scratch)
	relu.Forward(nil, pre, outRef, nil)
	outFused := make([]float64, outSize)
	fused.Forward(params, x, outFused, scratch)
	for i := range outRef {
		if math.Float64bits(outRef[i]) != math.Float64bits(outFused[i]) {
			t.Fatalf("fused forward out[%d]: %x vs %x", i, outRef[i], outFused[i])
		}
	}

	gradOut := make([]float64, outSize)
	for i := range gradOut {
		gradOut[i] = r.Norm()
	}
	gradOutFused := make([]float64, outSize)
	copy(gradOutFused, gradOut)
	gpRef := make([]float64, conv.ParamCount())
	gpFused := make([]float64, conv.ParamCount())
	giRef := make([]float64, in.Size())
	giFused := make([]float64, in.Size())
	gradPre := make([]float64, outSize)
	relu.Backward(nil, pre, outRef, gradOut, nil, gradPre, nil)
	conv.Backward(params, x, pre, gradPre, gpRef, giRef, scratch)
	fused.Backward(params, x, outFused, gradOutFused, gpFused, giFused, scratch)
	for i := range gpRef {
		if math.Float64bits(gpRef[i]) != math.Float64bits(gpFused[i]) {
			t.Fatalf("fused gradParams[%d]: %x vs %x", i, gpRef[i], gpFused[i])
		}
	}
	for i := range giRef {
		if math.Float64bits(giRef[i]) != math.Float64bits(giFused[i]) {
			t.Fatalf("fused gradIn[%d]: %x vs %x", i, giRef[i], giFused[i])
		}
	}
}

// TestSequentialFusesZoo asserts that Sequential actually substitutes the
// fused layer for conv→relu pairs without disturbing the parameter layout.
func TestSequentialFusesZoo(t *testing.T) {
	in := Shape3{C: 1, H: 8, W: 8}
	conv := NewConv2D(in, 8, 3, 1)
	relu := NewReLU(conv.OutShape())
	pool := NewMaxPool2D(conv.OutShape())
	flat := NewFlatten(pool.OutShape())
	dense := NewDense(pool.OutShape().Size(), 4)
	net, err := Sequential(SoftmaxCrossEntropy{}, conv, relu, pool, flat, dense)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(net.layers); got != 4 {
		t.Fatalf("layer count after fusion = %d, want 4", got)
	}
	if net.layers[0].Name() != "conv2d+relu" {
		t.Fatalf("first layer = %s, want conv2d+relu", net.layers[0].Name())
	}
	want := conv.ParamCount() + dense.ParamCount()
	if net.Dim() != want {
		t.Fatalf("dim = %d, want %d", net.Dim(), want)
	}
}

// FuzzConvGEMMEquivalence lets the fuzzer drive the geometry and the share of
// exact zeros in gradOut: any valid configuration must produce
// bitwise-identical results on both paths.
func FuzzConvGEMMEquivalence(f *testing.F) {
	f.Add(1, 8, 8, 8, 3, 1, uint64(5), 0.3)
	f.Add(8, 4, 4, 16, 3, 1, uint64(7), 0.85)
	f.Add(2, 3, 3, 2, 3, 3, uint64(1), 0.3)
	f.Add(1, 2, 2, 2, 3, 4, uint64(2), 0.0)
	f.Add(4, 5, 5, 6, 1, 0, uint64(3), 1.0)
	f.Add(3, 7, 6, 4, 3, 1, uint64(4), 0.85)
	f.Fuzz(func(t *testing.T, inC, h, w, outC, k, pad int, seed uint64, zeroFrac float64) {
		// Bound the geometry so a fuzzed input can't demand gigabytes.
		if inC < 1 || inC > 4 || h < 1 || h > 8 || w < 1 || w > 8 ||
			outC < 1 || outC > 4 || k < 1 || k > 5 || pad < 0 || pad > 5 ||
			!(zeroFrac >= 0 && zeroFrac <= 1) {
			t.Skip()
		}
		c := NewConv2D(Shape3{C: inC, H: h, W: w}, outC, k, pad)
		if err := c.Validate(); err != nil {
			t.Skip()
		}
		runConvEquiv(t, Shape3{C: inC, H: h, W: w}, outC, k, pad, seed|1, zeroFrac)
	})
}

// TestConvEquivalenceShapeNames guards against the table silently losing
// its degenerate corners in a refactor.
func TestConvEquivalenceShapeNames(t *testing.T) {
	need := map[string]bool{
		"pad-at-input-size": false, "pad-over-input-size": false,
		"one-by-one": false, "even-kernel": false, "single-pixel-out": false,
	}
	for _, g := range convGeometries {
		if _, ok := need[g.name]; ok {
			need[g.name] = true
		}
	}
	for name, seen := range need {
		if !seen {
			t.Errorf("equivalence table lost shape %s", name)
		}
	}
	// And every geometry must actually validate.
	for _, g := range convGeometries {
		if err := NewConv2D(g.in, g.outC, g.k, g.pad).Validate(); err != nil {
			t.Errorf("%s: %v", g.name, err)
		}
	}
}
