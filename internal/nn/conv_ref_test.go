package nn

// Reference implementation of Conv2D: the original six-deep loop nest with
// explicit bounds branches. It is retained verbatim as the bit-exactness
// oracle for the im2col/GEMM production path — conv_equiv_test.go asserts
// the two produce identical bits across a table of geometries and under
// fuzzing. It lives in a test file so production code cannot call it: it is
// the spec, not the kernel.

// forwardRef computes out = conv(params, in) with the naive loops.
func (c *Conv2D) forwardRef(params, in, out []float64) {
	outSh := c.OutShape()
	nw := c.outC * c.in.C * c.k * c.k
	w, b := params[:nw], params[nw:]
	planeIn := c.in.H * c.in.W
	planeOut := outSh.H * outSh.W
	for oc := 0; oc < c.outC; oc++ {
		bias := b[oc]
		outPlane := out[oc*planeOut : (oc+1)*planeOut]
		for i := range outPlane {
			outPlane[i] = bias
		}
		for ic := 0; ic < c.in.C; ic++ {
			kernel := w[(oc*c.in.C+ic)*c.k*c.k : (oc*c.in.C+ic+1)*c.k*c.k]
			inPlane := in[ic*planeIn : (ic+1)*planeIn]
			for oy := 0; oy < outSh.H; oy++ {
				for ox := 0; ox < outSh.W; ox++ {
					var s float64
					for ky := 0; ky < c.k; ky++ {
						iy := oy + ky - c.pad
						if iy < 0 || iy >= c.in.H {
							continue
						}
						rowIn := inPlane[iy*c.in.W:]
						rowK := kernel[ky*c.k:]
						for kx := 0; kx < c.k; kx++ {
							ix := ox + kx - c.pad
							if ix < 0 || ix >= c.in.W {
								continue
							}
							s += rowK[kx] * rowIn[ix]
						}
					}
					outPlane[oy*outSh.W+ox] += s
				}
			}
		}
	}
}

// backwardRef accumulates gradParams and overwrites gradIn with the naive
// loops.
func (c *Conv2D) backwardRef(params, in, gradOut, gradParams, gradIn []float64) {
	outSh := c.OutShape()
	nw := c.outC * c.in.C * c.k * c.k
	w := params[:nw]
	gw, gb := gradParams[:nw], gradParams[nw:]
	planeIn := c.in.H * c.in.W
	planeOut := outSh.H * outSh.W
	for i := range gradIn {
		gradIn[i] = 0
	}
	for oc := 0; oc < c.outC; oc++ {
		gOutPlane := gradOut[oc*planeOut : (oc+1)*planeOut]
		for _, g := range gOutPlane {
			gb[oc] += g
		}
		for ic := 0; ic < c.in.C; ic++ {
			kernel := w[(oc*c.in.C+ic)*c.k*c.k : (oc*c.in.C+ic+1)*c.k*c.k]
			gKernel := gw[(oc*c.in.C+ic)*c.k*c.k : (oc*c.in.C+ic+1)*c.k*c.k]
			inPlane := in[ic*planeIn : (ic+1)*planeIn]
			gInPlane := gradIn[ic*planeIn : (ic+1)*planeIn]
			for oy := 0; oy < outSh.H; oy++ {
				for ox := 0; ox < outSh.W; ox++ {
					g := gOutPlane[oy*outSh.W+ox]
					if g == 0 {
						continue
					}
					for ky := 0; ky < c.k; ky++ {
						iy := oy + ky - c.pad
						if iy < 0 || iy >= c.in.H {
							continue
						}
						for kx := 0; kx < c.k; kx++ {
							ix := ox + kx - c.pad
							if ix < 0 || ix >= c.in.W {
								continue
							}
							idx := iy*c.in.W + ix
							gKernel[ky*c.k+kx] += g * inPlane[idx]
							gInPlane[idx] += g * kernel[ky*c.k+kx]
						}
					}
				}
			}
		}
	}
}
