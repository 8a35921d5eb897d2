package nn

import "hieradmo/internal/rng"

// MaxPool2D is a 2×2 max pooling layer with stride 2. Odd trailing rows or
// columns are dropped (floor semantics), matching common framework defaults.
//
// Forward records the argmax position of every window in scratch (one
// float64-encoded plane index per output cell — exact for any realistic
// plane size), so Backward is a pure scatter with no recomputation. Ties
// route the gradient to the first maximal element in scan order, decided
// once in Forward.
type MaxPool2D struct {
	in Shape3
}

var _ Layer = (*MaxPool2D)(nil)
var _ scratchLayer = (*MaxPool2D)(nil)

// NewMaxPool2D returns a 2×2/stride-2 max pool over inputs of shape in.
func NewMaxPool2D(in Shape3) *MaxPool2D {
	return &MaxPool2D{in: in}
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return "maxpool2d" }

// InShape implements Layer.
func (p *MaxPool2D) InShape() Shape3 { return p.in }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape() Shape3 {
	return Shape3{C: p.in.C, H: p.in.H / 2, W: p.in.W / 2}
}

// ParamCount implements Layer.
func (p *MaxPool2D) ParamCount() int { return 0 }

// Init implements Layer (no parameters).
func (p *MaxPool2D) Init(params []float64, r *rng.RNG) {}

// ScratchSize implements scratchLayer: one saved argmax index per output
// cell.
func (p *MaxPool2D) ScratchSize() int { return p.OutShape().Size() }

// Forward implements Layer. A window is scanned in the order (0,0), (0,1),
// (1,0), (1,1) and a later element replaces the running maximum only when it
// is strictly greater, so ties go to the first maximal element.
//
// The scan is written without a data-dependent branch. Which of four
// activations is largest is as good as random — half of them are exact zeros
// after a ReLU — and the three compare-and-replace branches of the plain scan
// mispredict often enough to cost more than the rest of the window together
// (DESIGN.md §12 has the measurement). Here the four values are loaded once,
// all six pairwise "is greater" bits are taken up front, and the bits the scan
// would have looked at are selected by the ones before them: s1 is "b beats
// a", s2 is "c beats the winner of {a, b}", s3 is "d beats the winner of
// {a, b, c}". Every comparison the scan makes is made here on the same two
// operands, so the winner is the scan's for any input, ties and NaNs
// included.
func (p *MaxPool2D) Forward(params, in, out, scratch []float64) {
	outSh := p.OutShape()
	w := p.in.W
	planeIn := p.in.H * w
	planeOut := outSh.H * outSh.W
	for c := 0; c < p.in.C; c++ {
		inPlane := in[c*planeIn : (c+1)*planeIn]
		outPlane := out[c*planeOut : (c+1)*planeOut]
		idxPlane := scratch[c*planeOut : (c+1)*planeOut]
		for oy := 0; oy < outSh.H; oy++ {
			base := 2 * oy * w
			row0 := inPlane[base : base+w]
			row1 := inPlane[base+w : base+2*w]
			outRow := outPlane[oy*outSh.W : (oy+1)*outSh.W]
			idxRow := idxPlane[oy*outSh.W : (oy+1)*outSh.W]
			for ox := range outRow {
				a, b, c, d := row0[2*ox], row0[2*ox+1], row1[2*ox], row1[2*ox+1]
				s1 := greater(b, a)
				ca, da := greater(c, a), greater(d, a)
				s2 := ca ^ (ca^greater(c, b))&-s1
				dab := da ^ (da^greater(d, b))&-s1
				s3 := dab ^ (dab^greater(d, c))&-s2
				// Position in scan order: s1, unless c took over (2), unless
				// d did (3); bit 0 is the column, bit 1 the row.
				k := s1 ^ (s1^2)&-s2
				k ^= (k ^ 3) & -s3
				best := base + 2*ox + k&1 + (k>>1)*w
				outRow[ox] = inPlane[best]
				idxRow[ox] = float64(best)
			}
		}
	}
}

// greater is x > y as 0 or 1. The compiler turns the assignment under the
// comparison into a flag-to-register move, not a jump.
func greater(x, y float64) int {
	g := 0
	if x > y {
		g = 1
	}
	return g
}

// Backward implements Layer: zero gradIn, then route each output gradient to
// the window position Forward recorded in scratch.
func (p *MaxPool2D) Backward(params, in, _, gradOut, gradParams, gradIn, scratch []float64) {
	if gradIn == nil {
		return
	}
	outSh := p.OutShape()
	planeIn := p.in.H * p.in.W
	planeOut := outSh.H * outSh.W
	for i := range gradIn {
		gradIn[i] = 0
	}
	for c := 0; c < p.in.C; c++ {
		gInPlane := gradIn[c*planeIn : (c+1)*planeIn]
		gOutPlane := gradOut[c*planeOut : (c+1)*planeOut]
		idxPlane := scratch[c*planeOut : (c+1)*planeOut]
		for o, g := range gOutPlane {
			gInPlane[int(idxPlane[o])] += g
		}
	}
}
