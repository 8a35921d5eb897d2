package nn

import (
	"fmt"
	"sync"

	"hieradmo/internal/dataset"
	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
)

// Network is a feed-forward stack of layers with a classification/regression
// loss, operating over one flat parameter vector owned by the caller. The
// Network's layers and geometry are immutable after construction and it is
// safe for concurrent use; per-call activation, gradient, and kernel-scratch
// buffers come from an internal free list, so the training loop is
// allocation-free in steady state.
type Network struct {
	layers  []Layer
	blocks  []blockLayer // blocks[i] is layers[i] when it takes whole blocks, else nil
	offsets []int        // parameter offset of each layer within the flat vector
	dim     int          // total parameter count
	loss    Loss
	sizes   []int // sizes[i] is layer i's input length; sizes[len(layers)] the output's
	scratch []int // per-sample scratch length of each layer

	perSample int // workspace floats one sample occupies
	block     int // samples taken through the stack together, see blockBudget

	// free holds the workspaces not in use. A sync.Pool would hand them to
	// the collector at every cycle and rebuild a block's worth of buffers on
	// the next call; there are never more than the peak number of concurrent
	// callers, so the list keeps them all.
	mu   sync.Mutex
	free []*workspace
}

// blockBudget bounds the bytes of workspace one block of samples occupies —
// activations, activation gradients and layer scratch of every layer. The
// block size is the number of samples that fit, at least one. Half of a
// 256 kB L2: a block is written by one layer and read by the next, and the
// other half is left to the parameters and the gradient streaming past it.
// A single-Dense or MLP net takes a whole mini-batch at once, which is what
// makes its products matrix products; one sample of a conv net's im2col
// scratch is most of the budget, so conv nets run blocks of one — the
// sample-major order, where a sample's patches are still in cache when its
// backward pass wants them.
const blockBudget = 128 << 10

// workspace is the buffers of one call: for every layer boundary and every
// layer, slots regions back to back, slot s at [s·size, (s+1)·size).
type workspace struct {
	buf     []float64   // the regions below, back to back
	acts    [][]float64 // acts[i] is the input of layer i; acts[len(layers)] the output
	grads   [][]float64 // activation gradients, same shapes as acts
	scratch [][]float64 // per-layer kernel scratch (nil when the layer needs none)
}

// Sequential builds a network from layers and a loss, verifying that each
// layer's input shape matches the previous layer's output shape. A Conv2D
// immediately followed by a ReLU is fused into one conv2d+relu layer: the
// parameter layout, initialization stream, and every computed bit are
// unchanged (the ReLU holds no parameters), but the pair costs one layer
// slot, one workspace buffer, and one cache-warm in-place pass instead of
// two.
func Sequential(loss Loss, layers ...Layer) (*Network, error) {
	if loss == nil {
		return nil, fmt.Errorf("nn: nil loss")
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: no layers")
	}
	for i, l := range layers {
		if i > 0 && layers[i-1].OutShape().Size() != l.InShape().Size() {
			return nil, fmt.Errorf("nn: layer %d (%s) input %v does not match layer %d (%s) output %v",
				i, l.Name(), l.InShape(), i-1, layers[i-1].Name(), layers[i-1].OutShape())
		}
		if c, ok := l.(*Conv2D); ok {
			if err := c.Validate(); err != nil {
				return nil, fmt.Errorf("nn: layer %d: %w", i, err)
			}
		}
	}
	fused := make([]Layer, 0, len(layers))
	for i := 0; i < len(layers); i++ {
		if i+1 < len(layers) {
			if f := fuseConvReLU(layers[i], layers[i+1]); f != nil {
				fused = append(fused, f)
				i++
				continue
			}
		}
		fused = append(fused, layers[i])
	}
	offsets := make([]int, len(fused))
	dim := 0
	for i, l := range fused {
		offsets[i] = dim
		dim += l.ParamCount()
	}
	n := &Network{
		layers:  fused,
		blocks:  make([]blockLayer, len(fused)),
		offsets: offsets,
		dim:     dim,
		loss:    loss,
		sizes:   make([]int, len(fused)+1),
		scratch: make([]int, len(fused)),
	}
	n.sizes[0] = fused[0].InShape().Size()
	n.perSample = 2 * n.sizes[0]
	for i, l := range fused {
		n.blocks[i], _ = l.(blockLayer)
		n.sizes[i+1] = l.OutShape().Size()
		if sl, ok := l.(scratchLayer); ok {
			n.scratch[i] = sl.ScratchSize()
		}
		n.perSample += 2*n.sizes[i+1] + n.scratch[i]
	}
	n.block = max(1, blockBudget/(8*n.perSample))
	return n, nil
}

// getWorkspace takes a workspace of at least slots slots off the free list,
// building or enlarging one when there is none: a caller's first mini-batch
// sizes its workspace to the block it needs, and the steady state allocates
// nothing.
func (n *Network) getWorkspace(slots int) *workspace {
	var ws *workspace
	n.mu.Lock()
	if last := len(n.free) - 1; last >= 0 {
		ws, n.free = n.free[last], n.free[:last]
	}
	n.mu.Unlock()
	if ws == nil {
		ws = &workspace{}
	}
	if len(ws.buf) < slots*n.perSample {
		n.carve(ws, slots)
	}
	return ws
}

// carve gives ws one buffer of slots samples and cuts it into the regions of
// every layer boundary and layer.
func (n *Network) carve(ws *workspace, slots int) {
	ws.buf = make([]float64, slots*n.perSample)
	ws.acts = make([][]float64, len(n.sizes))
	ws.grads = make([][]float64, len(n.sizes))
	ws.scratch = make([][]float64, len(n.layers))
	rest := ws.buf
	cut := func(size int) []float64 {
		var region []float64
		if size > 0 {
			region, rest = rest[:slots*size:slots*size], rest[slots*size:]
		}
		return region
	}
	for i, size := range n.sizes {
		ws.acts[i], ws.grads[i] = cut(size), cut(size)
	}
	for i, size := range n.scratch {
		ws.scratch[i] = cut(size)
	}
}

func (n *Network) putWorkspace(ws *workspace) {
	n.mu.Lock()
	n.free = append(n.free, ws)
	n.mu.Unlock()
}

// slot is region s of a buffer of size-long regions; nil for a layer without
// scratch.
func slot(buf []float64, s, size int) []float64 {
	return buf[s*size : (s+1)*size : (s+1)*size]
}

// Dim returns the total number of parameters.
func (n *Network) Dim() int { return n.dim }

// InputSize returns the expected flattened input length.
func (n *Network) InputSize() int { return n.sizes[0] }

// OutputSize returns the network output length (e.g. the class count).
func (n *Network) OutputSize() int { return n.sizes[len(n.layers)] }

// Loss returns the configured loss.
func (n *Network) Loss() Loss { return n.loss }

// Init draws fresh initial parameters using r.
func (n *Network) Init(r *rng.RNG) tensor.Vector {
	params := tensor.NewVector(n.dim)
	for i, l := range n.layers {
		l.Init(n.layerParams(params, i), r)
	}
	return params
}

func (n *Network) layerParams(params tensor.Vector, i int) []float64 {
	return params[n.offsets[i] : n.offsets[i]+n.layers[i].ParamCount()]
}

// check validates the parameter vector and one block of inputs; labelled
// says the samples' labels are used and must name an output.
func (n *Network) check(params tensor.Vector, batch []dataset.Sample, labelled bool) error {
	if len(params) != n.dim {
		return fmt.Errorf("nn: %d params, want %d: %w", len(params), n.dim, tensor.ErrDimMismatch)
	}
	for _, s := range batch {
		if len(s.X) != n.InputSize() {
			return fmt.Errorf("nn: input %d, want %d: %w", len(s.X), n.InputSize(), tensor.ErrDimMismatch)
		}
		if labelled && (s.Label < 0 || s.Label >= n.OutputSize()) {
			return fmt.Errorf("nn: label %d out of range [0,%d)", s.Label, n.OutputSize())
		}
	}
	return nil
}

// forward takes one block — no more samples than ws has slots — through the
// layer stack inside ws, layer by layer, leaving the output activations in the
// slots of ws.acts[len(layers)].
func (n *Network) forward(ws *workspace, params tensor.Vector, blk []dataset.Sample) {
	nb := len(blk)
	for s := range blk {
		copy(slot(ws.acts[0], s, n.sizes[0]), blk[s].X)
	}
	for i, l := range n.layers {
		p := n.layerParams(params, i)
		if bl := n.blocks[i]; bl != nil {
			bl.forwardBlock(p, ws.acts[i], ws.acts[i+1], nb)
			continue
		}
		for s := 0; s < nb; s++ {
			l.Forward(p, slot(ws.acts[i], s, n.sizes[i]), slot(ws.acts[i+1], s, n.sizes[i+1]),
				slot(ws.scratch[i], s, n.scratch[i]))
		}
	}
}

// Forward runs the network and returns the output activation. The returned
// slice is freshly allocated and owned by the caller.
func (n *Network) Forward(params tensor.Vector, x []float64) ([]float64, error) {
	one := [1]dataset.Sample{{X: x}}
	if err := n.check(params, one[:], false); err != nil {
		return nil, err
	}
	ws := n.getWorkspace(1)
	n.forward(ws, params, one[:])
	out := make([]float64, n.OutputSize())
	copy(out, ws.acts[len(n.layers)])
	n.putWorkspace(ws)
	return out, nil
}

// LossGrad computes the loss for one labelled example and accumulates the
// parameter gradient into grad: LossGradBatch over a batch of one.
func (n *Network) LossGrad(params tensor.Vector, x []float64, label int, grad tensor.Vector) (float64, error) {
	one := [1]dataset.Sample{{X: x, Label: label}}
	return n.LossGradBatch(params, one[:], grad)
}

// LossGradBatch returns the sum of the losses of the labelled examples of
// batch, added left to right, and accumulates the sum of their parameter
// gradients into grad (which must have length Dim and is NOT zeroed here, so
// callers can average over a mini-batch or extend a sum).
//
// The batch goes through the stack in blocks of n.block samples, each block
// layer by layer. Layers own disjoint ranges of grad and every layer meets
// the samples in batch order whatever the block size, so each gradient
// element receives the same additions in the same order as one LossGrad call
// per sample would give it: the result does not depend on the block size.
func (n *Network) LossGradBatch(params tensor.Vector, batch []dataset.Sample, grad tensor.Vector) (float64, error) {
	if len(grad) != n.dim {
		return 0, fmt.Errorf("nn: params %d grad %d, want %d: %w",
			len(params), len(grad), n.dim, tensor.ErrDimMismatch)
	}
	if err := n.check(params, batch, true); err != nil {
		return 0, err
	}
	ws := n.getWorkspace(min(len(batch), n.block))
	last := len(n.layers)
	var total float64
	for len(batch) > 0 {
		blk := batch[:min(len(batch), n.block)]
		batch = batch[len(blk):]
		nb := len(blk)
		n.forward(ws, params, blk)
		for s := range blk {
			total += n.loss.LossGrad(slot(ws.acts[last], s, n.sizes[last]), blk[s].Label,
				slot(ws.grads[last], s, n.sizes[last]))
		}
		for i := last - 1; i >= 0; i-- {
			l := n.layers[i]
			p := n.layerParams(params, i)
			gp := grad[n.offsets[i] : n.offsets[i]+l.ParamCount()]
			// Nothing consumes the input gradient of the first layer; layers
			// skip computing it.
			gradIn := ws.grads[i]
			if i == 0 {
				gradIn = nil
			}
			if bl := n.blocks[i]; bl != nil {
				bl.backwardBlock(p, ws.acts[i], ws.grads[i+1], gp, gradIn, ws.scratch[i], nb)
				continue
			}
			for s := 0; s < nb; s++ {
				var gi []float64
				if gradIn != nil {
					gi = slot(gradIn, s, n.sizes[i])
				}
				l.Backward(p, slot(ws.acts[i], s, n.sizes[i]), slot(ws.acts[i+1], s, n.sizes[i+1]),
					slot(ws.grads[i+1], s, n.sizes[i+1]), gp, gi, slot(ws.scratch[i], s, n.scratch[i]))
			}
		}
	}
	n.putWorkspace(ws)
	return total, nil
}

// Predict returns the argmax output class for x without allocating: the
// output activation stays inside the workspace.
func (n *Network) Predict(params tensor.Vector, x []float64) (int, error) {
	one := [1]dataset.Sample{{X: x}}
	if err := n.check(params, one[:], false); err != nil {
		return 0, err
	}
	ws := n.getWorkspace(1)
	n.forward(ws, params, one[:])
	class := tensor.Vector(ws.acts[len(n.layers)][:n.OutputSize()]).ArgMax()
	n.putWorkspace(ws)
	return class, nil
}

// evalBlock caps the block of a forward-only pass. A forward product reuses
// the weights across the four samples of a register tile and no further, so
// two tiles are as good as twenty; and at a mini-batch's usual size an
// evaluation does not enlarge the workspace a training step sized.
const evalBlock = 8

// Correct returns how many of samples params classifies as labelled, taking
// them through the stack a block at a time: Predict over a run of samples.
func (n *Network) Correct(params tensor.Vector, samples []dataset.Sample) (int, error) {
	if err := n.check(params, samples, false); err != nil {
		return 0, err
	}
	block := min(len(samples), n.block, evalBlock)
	ws := n.getWorkspace(block)
	last := len(n.layers)
	correct := 0
	for len(samples) > 0 {
		blk := samples[:min(len(samples), block)]
		samples = samples[len(blk):]
		n.forward(ws, params, blk)
		for s := range blk {
			if tensor.Vector(slot(ws.acts[last], s, n.sizes[last])).ArgMax() == blk[s].Label {
				correct++
			}
		}
	}
	n.putWorkspace(ws)
	return correct, nil
}
