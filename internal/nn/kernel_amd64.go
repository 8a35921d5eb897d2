package nn

// The AVX2 bodies of the CNN's element-wise passes, in kernel_amd64.s. Each
// takes the whole blocks of four elements (or output cells) and returns how
// many it took; the Go loops run the rest. Every body reads and writes
// through raw pointers: its caller has checked every length.

// reluRectifyAVX2 clears each of x's n words whose sign bit is set, n % 4 == 0,
// n >= 4.
//
//go:noescape
func reluRectifyAVX2(x *float64, n int)

// reluGateAVX2 clears each of grad's n words whose out word is all zero bits,
// n % 4 == 0, n >= 4.
//
//go:noescape
func reluGateAVX2(grad, out *float64, n int)

// biasSumsAVX2 adds pixels [0, n) of channels planes, plane elements apart
// in grad, into gb[0..channels), each channel in pixel order;
// channels % 4 == 0, channels >= 4, n % 4 == 0, n >= 4, n <= plane.
//
//go:noescape
func biasSumsAVX2(gb, grad *float64, channels, plane, n int)

// poolForwardAVX2 runs the 2×2 window scan over the first cells output cells
// of the flattened C × outH × outW output, cells % 4 == 0, cells >= 4, outW
// and outH >= 1. w is the input row length and wf the same as a float;
// rowSkip (2w − 2·outW) and planeSkip (w when the input height is odd, else
// 0) are the elements the walk steps over at the end of an output row and of
// an output plane.
//
//go:noescape
func poolForwardAVX2(in, out, idx *float64, cells, w, outW, outH, rowSkip, planeSkip int, wf float64)

// poolScatterAVX2 stores +0 + gradOut[o] at gradIn[c·planeIn + idx[o]] for
// the first cells output cells o, c = o / planeOut the cell's plane;
// cells % 4 == 0, cells >= 4, planeOut >= 1. It stops before the first block
// of four holding an argmax outside [0, planeIn) and returns the cells it
// stored, so the Go loop that takes the rest meets the bad index in its
// bounds check.
//
//go:noescape
func poolScatterAVX2(gradIn, gradOut, idx *float64, cells, planeIn, planeOut int) int

func rectifyVector(x []float64) int {
	n4 := len(x) &^ 3
	if !vectorBodies || n4 == 0 {
		return 0
	}
	reluRectifyAVX2(&x[0], n4)
	return n4
}

func gateVector(g, out []float64) int {
	n4 := len(g) &^ 3
	if !vectorBodies || n4 == 0 {
		return 0
	}
	reluGateAVX2(&g[0], &out[:len(g)][0], n4)
	return n4
}

func biasSumsVector(gb, g []float64, plane int) (channels, pixels int) {
	channels, pixels = len(gb)&^3, plane&^3
	if !vectorBodies || channels == 0 || pixels == 0 {
		return 0, 0
	}
	_ = g[channels*plane-1]
	biasSumsAVX2(&gb[0], &g[0], channels, plane, pixels)
	return channels, pixels
}

func (p *MaxPool2D) forwardVector(in, out, idx []float64) int {
	outSh := p.OutShape()
	cells, w := outSh.Size()&^3, p.in.W
	if !vectorBodies || cells == 0 {
		return 0
	}
	_, _, _ = in[p.in.Size()-1], out[cells-1], idx[cells-1]
	poolForwardAVX2(&in[0], &out[0], &idx[0], cells, w, outSh.W, outSh.H, 2*w-2*outSh.W, p.in.H%2*w, float64(w))
	return cells
}

func (p *MaxPool2D) scatterVector(gradIn, gradOut, idx []float64) int {
	out := p.OutShape()
	cells := out.Size() &^ 3
	if !vectorBodies || cells == 0 {
		return 0
	}
	_, _, _ = gradIn[p.in.Size()-1], gradOut[cells-1], idx[cells-1]
	return poolScatterAVX2(&gradIn[0], &gradOut[0], &idx[0], cells, p.in.H*p.in.W, out.H*out.W)
}
