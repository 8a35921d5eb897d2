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

// denseZeroBias is the single-row zero bias for GEMM calls that compute a
// plain matrix-vector product.
var denseZeroBias = [1]float64{}

// Forward implements Layer: out = W·in + b. GEMMBias at n = 1 with the flat
// reduction is the matrix-vector kernel: four output rows per pass, each one
// dot product that starts at its bias and adds its products in input order.
func (d *Dense) Forward(params, in, out, _ []float64) {
	w := params[:d.out*d.in]
	b := params[d.out*d.in:]
	tensor.GEMMBias(out, w, in, b, d.out, 1, d.in, 0)
}

// Backward implements Layer through the shared kernels:
//
//	gb     += gradOut                    (plain accumulation)
//	gradIn  = Wᵀ·gradOut                 (GEMMBias, row vector × W, zero bias)
//	gW     += gradOut·inᵀ                (GEMMAddTransB at k = 1: the rank-1 kernel)
//
// Per destination element each kernel adds the same products in the same
// ascending order as the former interleaved loop (the rank-1 update adds one
// product per weight); the loop's skip of zero-gradient rows is equivalent
// to adding the ±0 products the kernels include (see the contract note in
// internal/tensor/gemm.go), so the results are bitwise unchanged.
func (d *Dense) Backward(params, in, _, gradOut, gradParams, gradIn, _ []float64) {
	w := params[:d.out*d.in]
	gw := gradParams[:d.out*d.in]
	gb := gradParams[d.out*d.in:]
	for o, g := range gradOut {
		gb[o] += g
	}
	if gradIn != nil {
		tensor.GEMMBias(gradIn, gradOut, w, denseZeroBias[:], 1, d.in, d.out, 0)
	}
	tensor.GEMMAddTransB(gw, gradOut, in, d.out, d.in, 1)
}
