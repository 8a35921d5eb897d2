package nn

import (
	"math"
	"testing"

	"hieradmo/internal/rng"
)

// forwardRef is MaxPool2D's specification: the plain scan, one window at a
// time, a later element winning only when strictly greater than the running
// maximum. The production Forward selects without branching and is held to
// this bit for bit, argmax index included.
func (p *MaxPool2D) forwardRef(in, out, idx []float64) {
	outSh := p.OutShape()
	planeIn := p.in.H * p.in.W
	planeOut := outSh.H * outSh.W
	for c := 0; c < p.in.C; c++ {
		inPlane := in[c*planeIn : (c+1)*planeIn]
		for oy := 0; oy < outSh.H; oy++ {
			for ox := 0; ox < outSh.W; ox++ {
				best := 2*oy*p.in.W + 2*ox
				for _, at := range []int{best + 1, best + p.in.W, best + p.in.W + 1} {
					if inPlane[at] > inPlane[best] {
						best = at
					}
				}
				out[c*planeOut+oy*outSh.W+ox] = inPlane[best]
				idx[c*planeOut+oy*outSh.W+ox] = float64(best)
			}
		}
	}
}

func TestMaxPoolForwardMatchesScan(t *testing.T) {
	// A small alphabet makes ties the common case: every pattern of equal,
	// greater and smaller among four positions turns up, with both zeros
	// (equal to each other, distinct bits) and values no comparison orders.
	alphabet := []float64{0, math.Copysign(0, -1), 1, 1, -1, 2.5, math.Inf(1), math.Inf(-1), math.NaN()}
	r := rng.New(41)
	for _, sh := range []Shape3{{C: 8, H: 14, W: 14}, {C: 16, H: 7, W: 7}, {C: 3, H: 5, W: 6}, {C: 1, H: 2, W: 2}, {C: 2, H: 3, W: 1}} {
		p := NewMaxPool2D(sh)
		for draw := 0; draw < 50; draw++ {
			x := make([]float64, sh.Size())
			for i := range x {
				if draw%2 == 0 {
					x[i] = alphabet[r.Intn(len(alphabet))]
				} else if v := r.Norm(); v > 0 {
					x[i] = v // what a ReLU hands a pool: half zeros, half positive
				}
			}
			n := p.OutShape().Size()
			got, gotIdx := make([]float64, n), make([]float64, n)
			want, wantIdx := make([]float64, n), make([]float64, n)
			p.Forward(nil, x, got, gotIdx)
			p.forwardRef(x, want, wantIdx)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || gotIdx[i] != wantIdx[i] {
					t.Fatalf("%+v draw %d: out[%d] = %v at %v, scan gives %v at %v",
						sh, draw, i, got[i], gotIdx[i], want[i], wantIdx[i])
				}
			}
		}
	}
}
