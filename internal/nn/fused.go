package nn

import (
	"math"

	"hieradmo/internal/rng"
)

// convReLU is the fused form of a Conv2D immediately followed by a ReLU.
// Sequential substitutes it automatically (the zoo's conv→relu pairs, and
// Residual's branch internally): one layer slot means one workspace
// activation instead of two, the rectification happens in the cache-warm
// conv output, and Backward gates the incoming gradient in place off the
// saved post-ReLU activation — out > 0 iff the pre-activation was > 0 for
// finite values, so no pre-activation buffer is kept at all. Bitwise
// identical to the unfused pair (asserted in conv_equiv_test.go).
type convReLU struct {
	conv *Conv2D
}

var _ Layer = (*convReLU)(nil)
var _ scratchLayer = (*convReLU)(nil)

// fuseConvReLU returns the fused layer when next is a ReLU consuming conv's
// output, or nil when the pair does not fuse.
func fuseConvReLU(l, next Layer) Layer {
	conv, ok := l.(*Conv2D)
	if !ok {
		return nil
	}
	if _, ok := next.(*ReLU); !ok {
		return nil
	}
	return &convReLU{conv: conv}
}

// Name implements Layer.
func (f *convReLU) Name() string { return "conv2d+relu" }

// InShape implements Layer.
func (f *convReLU) InShape() Shape3 { return f.conv.InShape() }

// OutShape implements Layer.
func (f *convReLU) OutShape() Shape3 { return f.conv.OutShape() }

// ParamCount implements Layer (the ReLU owns no parameters).
func (f *convReLU) ParamCount() int { return f.conv.ParamCount() }

// Init implements Layer, delegating to the convolution so the parameter
// stream is identical to the unfused stack.
func (f *convReLU) Init(params []float64, r *rng.RNG) { f.conv.Init(params, r) }

// ScratchSize implements scratchLayer.
func (f *convReLU) ScratchSize() int { return f.conv.ScratchSize() }

// Forward implements Layer: convolve, then rectify in place. The rectify is
// branchless — the sign of a conv output is data-random, so a compare-and-
// store loop mispredicts about half its branches. Clearing the whole word
// when the sign bit is set maps every negative to +0 and leaves +0 and
// positives untouched, matching the x > 0 branch bit-for-bit on the finite
// values the stack produces.
func (f *convReLU) Forward(params, in, out, scratch []float64) {
	f.conv.Forward(params, in, out, scratch)
	rectify(out)
}

// rectify clears every word of x whose sign bit is set. On AVX2 hosts the
// body in kernel_amd64.s clears the whole blocks of four first.
func rectify(x []float64) {
	rest := x[rectifyVector(x):]
	for i, v := range rest {
		bits := math.Float64bits(v)
		mask := uint64(int64(bits)>>63) ^ ^uint64(0) // 0 if negative, all-ones otherwise
		rest[i] = math.Float64frombits(bits & mask)
	}
}

// Backward implements Layer. The ReLU gate is applied to gradOut in place
// (the Layer contract allows clobbering it), then the convolution backward
// runs unchanged. out is post-ReLU, so each entry is either +0 (gate
// closed) or a positive value (gate open); the branchless mask keeps the
// gradient exactly when out's bits are nonzero. Gated-off entries become
// +0, which the conv backward skips exactly as the unfused path did.
func (f *convReLU) Backward(params, in, out, gradOut, gradParams, gradIn, scratch []float64) {
	gate(gradOut, out)
	f.conv.Backward(params, in, nil, gradOut, gradParams, gradIn, scratch)
}

// gate clears every word of grad whose out word is all zero bits. On AVX2
// hosts the body in kernel_amd64.s gates the whole blocks of four first.
func gate(grad, out []float64) {
	n := gateVector(grad, out)
	for i, x := range out[n:len(grad)] {
		bits := math.Float64bits(x)
		mask := uint64(int64(bits|-bits) >> 63) // all-ones if bits != 0
		grad[n+i] = math.Float64frombits(math.Float64bits(grad[n+i]) & mask)
	}
}
