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

// poolShapes are the pool test inputs: the zoo's two pools (output rows 7
// and 3 wide), output widths 4, 5, 8 and 14 whose blocks of four cells start
// at every column, odd trailing rows and columns, and single-cell and
// empty outputs.
var poolShapes = []Shape3{
	{C: 8, H: 14, W: 14}, {C: 16, H: 7, W: 7}, {C: 3, H: 5, W: 6}, {C: 1, H: 2, W: 2}, {C: 2, H: 3, W: 1},
	{C: 2, H: 8, W: 8}, {C: 3, H: 10, W: 11}, {C: 1, H: 16, W: 16}, {C: 8, H: 28, W: 28},
}

// poolInput draws a pool input: on even draws from a small alphabet, which
// makes ties the common case — every pattern of equal, greater and smaller
// among four positions turns up, with both zeros (equal to each other,
// distinct bits) and values no comparison orders — and on odd draws what a
// ReLU hands a pool: half zeros, half positive.
func poolInput(r *rng.RNG, n, draw int) []float64 {
	alphabet := []float64{0, math.Copysign(0, -1), 1, 1, -1, 2.5, math.Inf(1), math.Inf(-1), math.NaN()}
	x := make([]float64, n)
	for i := range x {
		if draw%2 == 0 {
			x[i] = alphabet[r.Intn(len(alphabet))]
		} else if v := r.Norm(); v > 0 {
			x[i] = v
		}
	}
	return x
}

func TestMaxPoolForwardMatchesScan(t *testing.T) {
	r := rng.New(41)
	for _, sh := range poolShapes {
		p := NewMaxPool2D(sh)
		for draw := 0; draw < 50; draw++ {
			x := poolInput(r, sh.Size(), draw)
			n := p.OutShape().Size()
			want, wantIdx := make([]float64, n), make([]float64, n)
			p.forwardRef(x, want, wantIdx)
			for _, on := range []bool{true, false} {
				got, gotIdx := make([]float64, n), make([]float64, n)
				withBodies(on, func() { p.Forward(nil, x, got, gotIdx) })
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) || gotIdx[i] != wantIdx[i] {
						t.Fatalf("%+v draw %d bodies %v: out[%d] = %v at %v, scan gives %v at %v",
							sh, draw, on, i, got[i], gotIdx[i], want[i], wantIdx[i])
					}
				}
			}
		}
	}
}

// TestMaxPoolBackwardMatchesScatter holds Backward to the zero-then-+=
// scatter it runs without vector bodies, bit for bit, on a gradIn that
// starts as NaN so every cell must be written: a −0 gradient lands as +0
// (+0 + −0), NaN and ±Inf gradients pass through, and the odd trailing rows
// and columns no window covers are +0.
func TestMaxPoolBackwardMatchesScatter(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -2.5}
	r := rng.New(43)
	for _, sh := range poolShapes {
		p := NewMaxPool2D(sh)
		n := p.OutShape().Size()
		for draw := 0; draw < 20; draw++ {
			x := poolInput(r, sh.Size(), draw)
			out, idx := make([]float64, n), make([]float64, n)
			p.forwardRef(x, out, idx)
			gradOut := make([]float64, n)
			for i := range gradOut {
				if draw%2 == 0 {
					gradOut[i] = specials[r.Intn(len(specials))]
				} else {
					gradOut[i] = r.Norm()
				}
			}
			want := make([]float64, sh.Size())
			for i := range want {
				want[i] = math.NaN()
			}
			got := append([]float64(nil), want...)
			withBodies(false, func() { p.Backward(nil, x, out, gradOut, nil, want, idx) })
			withBodies(true, func() { p.Backward(nil, x, out, gradOut, nil, got, idx) })
			covered := make([]bool, len(want))
			for o, at := range idx {
				covered[o/(n/sh.C)*sh.H*sh.W+int(at)] = true
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%+v draw %d: gradIn[%d] = %v (%#x), scatter gives %v (%#x)",
						sh, draw, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
				if !covered[i] && math.Float64bits(want[i]) != 0 {
					t.Fatalf("%+v draw %d: gradIn[%d] = %v off every argmax, want +0", sh, draw, i, want[i])
				}
			}
		}
	}
}

// TestMaxPoolBackwardRefusesBadArgmax: an argmax outside its plane — a
// scratch region Forward did not leave — panics at the Go loop's bounds
// check, bodies on or off; the vector body stops before the block holding
// it and stores nothing out of bounds.
func TestMaxPoolBackwardRefusesBadArgmax(t *testing.T) {
	sh := Shape3{C: 16, H: 7, W: 7}
	p := NewMaxPool2D(sh)
	r := rng.New(47)
	x := poolInput(r, sh.Size(), 1)
	n := p.OutShape().Size()
	out, idx := make([]float64, n), make([]float64, n)
	p.forwardRef(x, out, idx)
	gradOut := poolInput(r, n, 1)
	for _, bad := range []float64{-1, 49, math.NaN(), 1e300} {
		for _, on := range []bool{true, false} {
			corrupt := append([]float64(nil), idx...)
			corrupt[n/2] = bad
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("argmax %v, bodies %v: Backward did not panic", bad, on)
					}
				}()
				withBodies(on, func() { p.Backward(nil, x, out, gradOut, nil, make([]float64, sh.Size()), corrupt) })
			}()
		}
	}
}
