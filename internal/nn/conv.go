package nn

import (
	"fmt"
	"math"

	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
)

// Conv2D is a 2-D convolution with square kernels, unit stride and symmetric
// zero padding. Parameters are laid out as weights [outC][inC][k][k] followed
// by biases [outC].
//
// Forward and Backward run on an im2col/GEMM path: the receptive-field
// patches are gathered into a K×P matrix (K = inC·k·k rows in (ic, ky, kx)
// order, P = outH·outW pixel columns) and handed to the blocked kernels in
// internal/tensor. The patch row order plus tensor.GEMMBias's per-channel
// chunked accumulation (kChunk = k·k) reproduce the naive nested loops'
// summation sequence exactly, so results are bitwise identical to the
// retained reference implementation in conv_ref_test.go (asserted over a
// shape table and a fuzz target in conv_equiv_test.go) and golden traces are
// unchanged. The equivalence holds for finite inputs: boundary cells enter
// the GEMM as ±0 products, which can never flip an accumulator's bits (see
// the contract note in internal/tensor/gemm.go).
type Conv2D struct {
	in   Shape3
	outC int
	k    int
	pad  int
}

var _ Layer = (*Conv2D)(nil)
var _ scratchLayer = (*Conv2D)(nil)

// NewConv2D returns a convolution over inputs of shape in producing outC
// channels with a k×k kernel and padding pad. It never panics: invalid
// geometry (non-positive kernel or channel counts, negative padding, or an
// output plane with no pixels) is reported by Validate, which the Network
// builder calls during Sequential.
func NewConv2D(in Shape3, outC, k, pad int) *Conv2D {
	return &Conv2D{in: in, outC: outC, k: k, pad: pad}
}

// Validate reports whether the layer geometry produces a positive output
// size.
func (c *Conv2D) Validate() error {
	out := c.OutShape()
	if c.k <= 0 || c.outC <= 0 || c.pad < 0 {
		return fmt.Errorf("nn: conv2d invalid config k=%d outC=%d pad=%d", c.k, c.outC, c.pad)
	}
	if out.H <= 0 || out.W <= 0 {
		return fmt.Errorf("nn: conv2d output %dx%d not positive for input %dx%d k=%d pad=%d",
			out.H, out.W, c.in.H, c.in.W, c.k, c.pad)
	}
	return nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return "conv2d" }

// InShape implements Layer.
func (c *Conv2D) InShape() Shape3 { return c.in }

// OutShape implements Layer.
func (c *Conv2D) OutShape() Shape3 {
	return Shape3{
		C: c.outC,
		H: c.in.H + 2*c.pad - c.k + 1,
		W: c.in.W + 2*c.pad - c.k + 1,
	}
}

// ParamCount implements Layer.
func (c *Conv2D) ParamCount() int { return c.outC*c.in.C*c.k*c.k + c.outC }

// Init implements Layer with He initialization over the kernel fan-in.
func (c *Conv2D) Init(params []float64, r *rng.RNG) {
	fanIn := float64(c.in.C * c.k * c.k)
	std := math.Sqrt(2.0 / fanIn)
	nw := c.outC * c.in.C * c.k * c.k
	for i := 0; i < nw; i++ {
		params[i] = std * r.Norm()
	}
	for i := nw; i < len(params); i++ {
		params[i] = 0
	}
}

// padSize is the element count of one zero-padded input volume.
func (c *Conv2D) padSize() int {
	return c.in.C * (c.in.H + 2*c.pad) * (c.in.W + 2*c.pad)
}

// patchSize is the element count of the im2col patch matrix (K×P).
func (c *Conv2D) patchSize() int {
	out := c.OutShape()
	return c.in.C * c.k * c.k * out.H * out.W
}

// ScratchSize implements scratchLayer. The scratch region holds, in order,
// the zero-padded input volume, a zero-padded input-gradient volume (used by
// Backward only), and the im2col patch matrix. Unpadded layers skip the two
// padded volumes and gather patches straight from the input (a 1×1 unpadded
// kernel needs no scratch at all: the input already is the patch matrix).
func (c *Conv2D) ScratchSize() int {
	if c.k == 1 && c.pad == 0 {
		return 0
	}
	if c.pad == 0 {
		return c.patchSize()
	}
	return 2*c.padSize() + c.patchSize()
}

// pad2d zero-pads in (C×H×W) into dst (C×(H+2p)×(W+2p)).
func (c *Conv2D) pad2d(dst, in []float64) {
	pH, pW := c.in.H+2*c.pad, c.in.W+2*c.pad
	for i := range dst {
		dst[i] = 0
	}
	for ic := 0; ic < c.in.C; ic++ {
		src := in[ic*c.in.H*c.in.W:]
		dstPlane := dst[ic*pH*pW:]
		for y := 0; y < c.in.H; y++ {
			copy(dstPlane[(y+c.pad)*pW+c.pad:(y+c.pad)*pW+c.pad+c.in.W],
				src[y*c.in.W:(y+1)*c.in.W])
		}
	}
}

// im2col gathers the padded input into the K×P patch matrix inside scratch
// and returns it. Row (ic·k² + ky·k + kx) holds, for every output pixel
// p = oy·outW + ox, the padded input value at channel ic, position
// (oy+ky, ox+kx) — each (ky, oy) pair is one contiguous outW-length copy.
// When the geometry makes the input its own patch matrix (1×1 kernel, no
// padding) the input slice is returned directly, uncopied.
func (c *Conv2D) im2col(in, scratch []float64) []float64 {
	if c.k == 1 && c.pad == 0 {
		return in
	}
	out := c.OutShape()
	src, pW := in, c.in.W
	patch := scratch[:c.patchSize()]
	if c.pad > 0 {
		padded := scratch[:c.padSize()]
		c.pad2d(padded, in)
		src, pW = padded, c.in.W+2*c.pad
		patch = scratch[2*c.padSize() : 2*c.padSize()+c.patchSize()]
	}
	pH := c.in.H + 2*c.pad
	P := out.H * out.W
	for ic := 0; ic < c.in.C; ic++ {
		srcPlane := src[ic*pH*pW:]
		for ky := 0; ky < c.k; ky++ {
			for kx := 0; kx < c.k; kx++ {
				row := patch[(ic*c.k*c.k+ky*c.k+kx)*P:]
				for oy := 0; oy < out.H; oy++ {
					copy(row[oy*out.W:(oy+1)*out.W],
						srcPlane[(oy+ky)*pW+kx:(oy+ky)*pW+kx+out.W])
				}
			}
		}
	}
	return patch
}

// Forward implements Layer.
func (c *Conv2D) Forward(params, in, out, scratch []float64) {
	outSh := c.OutShape()
	nw := c.outC * c.in.C * c.k * c.k
	w, b := params[:nw], params[nw:]
	patch := c.im2col(in, scratch)
	tensor.GEMMBias(out, w, patch, b,
		c.outC, outSh.H*outSh.W, c.in.C*c.k*c.k, c.k*c.k)
}

// patchInScratch returns the im2col patch matrix that the preceding Forward
// call left in scratch (see the persistence contract in layer.go), without
// rebuilding it. For the 1×1 unpadded geometry the input is its own patch.
func (c *Conv2D) patchInScratch(in, scratch []float64) []float64 {
	if c.k == 1 && c.pad == 0 {
		return in
	}
	if c.pad == 0 {
		return scratch[:c.patchSize()]
	}
	return scratch[2*c.padSize() : 2*c.padSize()+c.patchSize()]
}

// Backward implements Layer. It reuses the patch matrix cached in scratch by
// the matching Forward call instead of re-running pad2d/im2col, and skips the
// input-gradient scatter entirely when gradIn is nil (first network layer).
func (c *Conv2D) Backward(params, in, out, gradOut, gradParams, gradIn, scratch []float64) {
	outSh := c.OutShape()
	nw := c.outC * c.in.C * c.k * c.k
	w := params[:nw]
	gw, gb := gradParams[:nw], gradParams[nw:]
	P := outSh.H * outSh.W

	// Bias gradient: plain per-channel sums over the output plane, hoisted
	// into a register but added in the same pixel order as ever.
	for oc := 0; oc < c.outC; oc++ {
		s := gb[oc]
		for _, g := range gradOut[oc*P : (oc+1)*P] {
			s += g
		}
		gb[oc] = s
	}

	// Weight gradient: gw[oc, (ic,ky,kx)] += Σ_p gradOut[oc,p]·patch[(ic,ky,kx),p]
	// — one A·Bᵀ accumulation over the cached patch matrix. Ascending-p
	// accumulation from the existing gw value matches the reference loops.
	patch := c.patchInScratch(in, scratch)
	tensor.GEMMAddTransB(gw, gradOut, patch, c.outC, c.in.C*c.k*c.k, P)

	if gradIn == nil {
		return
	}

	// Input gradient: an order-preserving scatter. A col2im GEMM would
	// re-associate the per-cell sums (each input cell receives contributions
	// from many (oc, pixel, tap) triples in a fixed interleaved order), so
	// the scatter keeps the reference loop nest and only drops the bounds
	// branches by writing into a zero-padded plane that is cropped after.
	if c.pad == 0 {
		c.scatterGradIn(w, gradOut, gradIn, c.in.H, c.in.W)
		return
	}
	pH, pW := c.in.H+2*c.pad, c.in.W+2*c.pad
	gpad := scratch[c.padSize() : 2*c.padSize()]
	c.scatterGradIn(w, gradOut, gpad, pH, pW)
	for ic := 0; ic < c.in.C; ic++ {
		gSrc := gpad[ic*pH*pW:]
		gDst := gradIn[ic*c.in.H*c.in.W:]
		for y := 0; y < c.in.H; y++ {
			copy(gDst[y*c.in.W:(y+1)*c.in.W],
				gSrc[(y+c.pad)*pW+c.pad:(y+c.pad)*pW+c.pad+c.in.W])
		}
	}
}

// scatterGradIn accumulates the input gradient into dst, a (possibly padded)
// C×dH×dW volume that is zeroed here first. The loop nest (oc, ic, pixel,
// ky, kx) and the zero-gradient skip mirror the reference backward exactly;
// with padding the bounds checks vanish because every tap lands in dst.
func (c *Conv2D) scatterGradIn(w, gradOut, dst []float64, dH, dW int) {
	outSh := c.OutShape()
	P := outSh.H * outSh.W
	for i := range dst {
		dst[i] = 0
	}
	for oc := 0; oc < c.outC; oc++ {
		gOutPlane := gradOut[oc*P : (oc+1)*P]
		for ic := 0; ic < c.in.C; ic++ {
			kernel := w[(oc*c.in.C+ic)*c.k*c.k : (oc*c.in.C+ic+1)*c.k*c.k]
			dPlane := dst[ic*dH*dW:]
			if c.k == 3 {
				// The zoo is all-3×3; lifting the nine weights into
				// registers once per (oc, ic) pair removes two slice
				// constructions and the tap loop from every pixel. Adds
				// happen in the same (ky, kx) order as the generic nest.
				k0, k1, k2 := kernel[0], kernel[1], kernel[2]
				k3, k4, k5 := kernel[3], kernel[4], kernel[5]
				k6, k7, k8 := kernel[6], kernel[7], kernel[8]
				for oy := 0; oy < outSh.H; oy++ {
					for ox := 0; ox < outSh.W; ox++ {
						g := gOutPlane[oy*outSh.W+ox]
						if g == 0 {
							continue
						}
						r0 := dPlane[oy*dW+ox : oy*dW+ox+3 : oy*dW+ox+3]
						r1 := dPlane[(oy+1)*dW+ox : (oy+1)*dW+ox+3 : (oy+1)*dW+ox+3]
						r2 := dPlane[(oy+2)*dW+ox : (oy+2)*dW+ox+3 : (oy+2)*dW+ox+3]
						r0[0] += g * k0
						r0[1] += g * k1
						r0[2] += g * k2
						r1[0] += g * k3
						r1[1] += g * k4
						r1[2] += g * k5
						r2[0] += g * k6
						r2[1] += g * k7
						r2[2] += g * k8
					}
				}
				continue
			}
			for oy := 0; oy < outSh.H; oy++ {
				for ox := 0; ox < outSh.W; ox++ {
					g := gOutPlane[oy*outSh.W+ox]
					if g == 0 {
						continue
					}
					for ky := 0; ky < c.k; ky++ {
						row := dPlane[(oy+ky)*dW+ox : (oy+ky)*dW+ox+c.k]
						krow := kernel[ky*c.k : (ky+1)*c.k]
						for kx, kw := range krow {
							row[kx] += g * kw
						}
					}
				}
			}
		}
	}
}
