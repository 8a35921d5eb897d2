package nn

import "hieradmo/internal/rng"

// GlobalAvgPool averages each channel plane to a single value, the modern
// replacement for large dense classifier heads.
type GlobalAvgPool struct {
	in Shape3
}

var _ Layer = (*GlobalAvgPool)(nil)

// NewGlobalAvgPool returns a global average pool over inputs of shape in.
func NewGlobalAvgPool(in Shape3) *GlobalAvgPool {
	return &GlobalAvgPool{in: in}
}

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return "globalavgpool" }

// InShape implements Layer.
func (p *GlobalAvgPool) InShape() Shape3 { return p.in }

// OutShape implements Layer.
func (p *GlobalAvgPool) OutShape() Shape3 { return Shape3{C: 1, H: 1, W: p.in.C} }

// ParamCount implements Layer.
func (p *GlobalAvgPool) ParamCount() int { return 0 }

// Init implements Layer (no parameters).
func (p *GlobalAvgPool) Init(params []float64, r *rng.RNG) {}

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(params, in, out, _ []float64) {
	plane := p.in.H * p.in.W
	inv := 1 / float64(plane)
	for c := 0; c < p.in.C; c++ {
		var sum float64
		for _, v := range in[c*plane : (c+1)*plane] {
			sum += v
		}
		out[c] = sum * inv
	}
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(params, in, _, gradOut, gradParams, gradIn, _ []float64) {
	if gradIn == nil {
		return
	}
	plane := p.in.H * p.in.W
	inv := 1 / float64(plane)
	for c := 0; c < p.in.C; c++ {
		g := gradOut[c] * inv
		gPlane := gradIn[c*plane : (c+1)*plane]
		for i := range gPlane {
			gPlane[i] = g
		}
	}
}
