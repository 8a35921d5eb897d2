// Package nn is a small, pure-Go neural-network substrate with hand-written
// backpropagation over a single flat parameter vector.
//
// It exists because this reproduction needs CNN/VGG/ResNet-style models and
// has no deep-learning ecosystem available (stdlib only). The design keeps
// every layer stateless: Forward and Backward receive the layer's parameter
// block and the saved input activation explicitly, so a single Network can be
// evaluated concurrently with per-goroutine workspaces and gradients can be
// checked against finite differences layer by layer.
package nn

import (
	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
)

// vectorBodies routes the CNN's element-wise passes — the fused ReLU's
// rectify and gate, Conv2D's bias sums, MaxPool2D's forward scan and backward
// scatter — through their AVX2 bodies (kernel_amd64.s) where internal/tensor's
// detection found AVX2. Nothing else sets it; tests clear it to run the Go
// loops alone, which are the oracle the bodies are held to, take the
// elements a body leaves, and run everywhere else.
var vectorBodies = tensor.HasAVX2()

// Shape3 is an activation shape: channels × height × width.
type Shape3 struct {
	C, H, W int
}

// Size returns the flattened element count.
func (s Shape3) Size() int { return s.C * s.H * s.W }

// Layer is one differentiable stage of a feed-forward network.
//
// Forward writes the activation for input in into out. Backward receives the
// same params and in that Forward saw, the activation out that Forward
// produced, the loss gradient with respect to the layer output (gradOut),
// and must (a) accumulate the loss gradient with respect to the layer
// parameters into gradParams and (b) overwrite gradIn with the loss gradient
// with respect to the input. Backward may clobber gradOut as working storage
// (fused layers gate it in place); the Network never reads a gradient buffer
// after handing it to the layer that consumes it. Slices are sized by the
// Network; implementations must not retain them.
//
// scratch is working storage owned by the calling goroutine's workspace.
// Layers that need it implement ScratchSize() int (see scratchLayer);
// everyone else receives nil. The Network takes a block of samples through
// the stack layer by layer, and every sample of the block has its own slot —
// its own input, output, gradient and scratch region — so a layer is called
// once per slot and never sees two samples in one call. Scratch contents are
// undefined when Forward runs, but the scratch handed to Backward is the
// region the Forward call for the same slot left behind, untouched in between
// (the calls for the block's other slots work in theirs) — Backward may reuse
// state cached there (im2col patch matrices, pooling argmax indices) instead
// of recomputing it from the saved input. Callers that invoke Backward
// directly must therefore run the matching Forward first on the same
// scratch, which is exactly what Network.LossGradBatch does.
//
// A nil gradIn tells Backward the caller does not need the input gradient
// (the first layer of a network has nothing upstream); the layer must skip
// computing it but still accumulate gradParams.
type Layer interface {
	// Name identifies the layer kind for diagnostics.
	Name() string
	// InShape and OutShape describe the activation geometry.
	InShape() Shape3
	OutShape() Shape3
	// ParamCount is the number of float64 parameters this layer owns.
	ParamCount() int
	// Init writes initial parameter values into params (len ParamCount).
	Init(params []float64, r *rng.RNG)
	// Forward computes out = f(params, in).
	Forward(params, in, out, scratch []float64)
	// Backward accumulates into gradParams and overwrites gradIn.
	Backward(params, in, out, gradOut, gradParams, gradIn, scratch []float64)
}

// scratchLayer is implemented by layers whose kernels need working storage
// (im2col patch buffers, padded planes, recomputed intermediate activations).
// The Network sizes one scratch region per layer instance and slot in every
// workspace.
type scratchLayer interface {
	// ScratchSize is the float64 count of working storage one sample's
	// Forward and Backward calls need.
	ScratchSize() int
}

// blockLayer is implemented by layers that take a whole block of samples in
// one call (Dense: a block turns its matrix-vector products into matrix
// products). in, out, gradOut, gradIn and scratch are the block's nb slots
// back to back, slot s at [s·size, (s+1)·size); the contract is otherwise
// Layer's. A block layer's Forward and Backward are its block of one.
type blockLayer interface {
	forwardBlock(params, in, out []float64, nb int)
	backwardBlock(params, in, gradOut, gradParams, gradIn, scratch []float64, nb int)
}
