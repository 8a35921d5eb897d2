package nn

import (
	"math"

	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
)

// Dense is a fully connected layer: out = W·in + b. Parameters are laid out
// as the row-major weight matrix (out×in) followed by the bias vector.
type Dense struct {
	in, out int
}

var _ Layer = (*Dense)(nil)
var _ scratchLayer = (*Dense)(nil)
var _ blockLayer = (*Dense)(nil)

// NewDense returns a fully connected layer mapping in features to out
// features. The input may have any 3-D shape; it is treated as flat.
func NewDense(in, out int) *Dense {
	return &Dense{in: in, out: out}
}

// Name implements Layer.
func (d *Dense) Name() string { return "dense" }

// InShape implements Layer.
func (d *Dense) InShape() Shape3 { return Shape3{C: 1, H: 1, W: d.in} }

// OutShape implements Layer.
func (d *Dense) OutShape() Shape3 { return Shape3{C: 1, H: 1, W: d.out} }

// ParamCount implements Layer.
func (d *Dense) ParamCount() int { return d.out*d.in + d.out }

// Init implements Layer with He initialization (suited to the ReLU networks
// used here) and zero biases.
func (d *Dense) Init(params []float64, r *rng.RNG) {
	std := math.Sqrt(2.0 / float64(d.in))
	for i := 0; i < d.out*d.in; i++ {
		params[i] = std * r.Norm()
	}
	for i := d.out * d.in; i < len(params); i++ {
		params[i] = 0
	}
}

// ScratchSize implements scratchLayer: one output-sized region per sample, so
// a block's scratch holds its output gradients transposed.
func (d *Dense) ScratchSize() int { return d.out }

// Forward implements Layer: the block of one.
func (d *Dense) Forward(params, in, out, _ []float64) {
	d.forwardBlock(params, in, out, 1)
}

// Backward implements Layer: the block of one.
func (d *Dense) Backward(params, in, _, gradOut, gradParams, gradIn, scratch []float64) {
	d.backwardBlock(params, in, gradOut, gradParams, gradIn, scratch, 1)
}

// forwardBlock implements blockLayer: Out = 1·bᵀ + In·Wᵀ for the nb × in
// block In. Every output row starts as the bias and GEMMAddTransB adds its
// products in input order — per sample the dot products of out = W·in + b,
// each starting at its bias, with the factors of every product swapped.
func (d *Dense) forwardBlock(params, in, out []float64, nb int) {
	w := params[:d.out*d.in]
	b := params[d.out*d.in:]
	for s := 0; s < nb; s++ {
		copy(out[s*d.out:(s+1)*d.out], b)
	}
	tensor.GEMMAddTransB(out, in, w, nb, d.out, d.in)
}

// backwardBlock implements blockLayer through the shared kernels, G the
// nb × out block of output gradients:
//
//	gb     += Σ_s G[s,:]                 (plain accumulation, s ascending)
//	gradIn  = G·W                        (GEMMAdd onto zeros, o ascending)
//	gW     += Gᵀ·In                      (GEMMAdd, s ascending)
//
// Per destination element each line adds the same products in the same order
// as one sample at a time would: a weight takes one product per sample, in
// sample order, onto whatever the samples before the block left there, and an
// input gradient is one sample's own sum. The skip of zero-gradient rows an
// interleaved loop would make is equivalent to adding the ±0 products the
// kernels include (see the contract note in internal/tensor/gemm.go).
//
// GEMMAdd wants Gᵀ row-major (out × nb), so the block's gradients are
// transposed into scratch — out·nb values, against the out·in the product
// touches. A one-row G is its own transpose and is used where it lies.
func (d *Dense) backwardBlock(params, in, gradOut, gradParams, gradIn, scratch []float64, nb int) {
	w := params[:d.out*d.in]
	gw := gradParams[:d.out*d.in]
	gb := gradParams[d.out*d.in:]
	gt := gradOut[:nb*d.out]
	if nb > 1 {
		gt = scratch[:nb*d.out]
	}
	for s := 0; s < nb; s++ {
		for o, g := range gradOut[s*d.out : (s+1)*d.out] {
			gb[o] += g
			gt[o*nb+s] = g
		}
	}
	if gradIn != nil {
		gradIn = gradIn[:nb*d.in]
		clear(gradIn)
		tensor.GEMMAdd(gradIn, gradOut, w, nb, d.in, d.out)
	}
	tensor.GEMMAdd(gw, gt, in, d.out, d.in, nb)
}
