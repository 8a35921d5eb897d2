// Package model defines the learning models used in the paper's evaluation
// and the Model interface the federated-learning algorithms train against.
//
// All five paper models are provided: linear regression (MSE loss), logistic
// regression (cross-entropy), a classic small CNN, a VGG-style deeper
// convolutional stack ("VGG-mini"), and a ResNet-style network with residual
// blocks ("ResNet-mini"). The deep models are laptop-scale stand-ins for
// VGG16/ResNet18 — same architectural family, reduced width/depth (see
// DESIGN.md §1).
package model

import (
	"fmt"

	"hieradmo/internal/dataset"
	"hieradmo/internal/nn"
	"hieradmo/internal/parallel"
	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
)

// Model is the training surface the FL algorithms operate on: a
// differentiable loss over a flat parameter vector.
type Model interface {
	// Name identifies the model for reports.
	Name() string
	// Dim is the parameter count.
	Dim() int
	// Init draws fresh initial parameters.
	Init(r *rng.RNG) tensor.Vector
	// LossGrad returns the mean loss over batch and overwrites grad with the
	// mean parameter gradient.
	LossGrad(params tensor.Vector, batch []dataset.Sample, grad tensor.Vector) (float64, error)
	// Loss returns the mean loss over batch without computing gradients.
	Loss(params tensor.Vector, batch []dataset.Sample) (float64, error)
	// Predict returns the predicted class for one input.
	Predict(params tensor.Vector, x tensor.Vector) (int, error)
}

// NetModel adapts an nn.Network to the Model interface.
type NetModel struct {
	name     string
	net      *nn.Network
	zeroInit bool
}

var _ Model = (*NetModel)(nil)

// NewNetModel wraps net under the given report name.
func NewNetModel(name string, net *nn.Network) *NetModel {
	return &NetModel{name: name, net: net}
}

// NewZeroInitNetModel wraps net with all-zero initial parameters, the
// conventional start for convex models (linear/logistic regression). It also
// grounds the paper's eq. (6): from a zero start, Σy tracks the accumulated
// update direction, making the adaptation angle a momentum/gradient
// agreement signal.
func NewZeroInitNetModel(name string, net *nn.Network) *NetModel {
	return &NetModel{name: name, net: net, zeroInit: true}
}

// Name implements Model.
func (m *NetModel) Name() string { return m.name }

// Dim implements Model.
func (m *NetModel) Dim() int { return m.net.Dim() }

// Network exposes the underlying network (used by tests and diagnostics).
func (m *NetModel) Network() *nn.Network { return m.net }

// Init implements Model.
func (m *NetModel) Init(r *rng.RNG) tensor.Vector {
	if m.zeroInit {
		return tensor.NewVector(m.net.Dim())
	}
	return m.net.Init(r)
}

// LossGrad implements Model.
func (m *NetModel) LossGrad(params tensor.Vector, batch []dataset.Sample, grad tensor.Vector) (float64, error) {
	if len(batch) == 0 {
		return 0, fmt.Errorf("model %s: empty batch", m.name)
	}
	grad.Zero()
	total, err := m.net.LossGradBatch(params, batch, grad)
	if err != nil {
		return 0, fmt.Errorf("model %s: %w", m.name, err)
	}
	inv := 1 / float64(len(batch))
	grad.Scale(inv)
	return total * inv, nil
}

// Loss implements Model.
func (m *NetModel) Loss(params tensor.Vector, batch []dataset.Sample) (float64, error) {
	if len(batch) == 0 {
		return 0, fmt.Errorf("model %s: empty batch", m.name)
	}
	var total float64
	gradOut := make([]float64, m.net.OutputSize())
	for _, s := range batch {
		out, err := m.net.Forward(params, s.X)
		if err != nil {
			return 0, fmt.Errorf("model %s: %w", m.name, err)
		}
		total += m.net.Loss().LossGrad(out, s.Label, gradOut)
	}
	return total / float64(len(batch)), nil
}

// Predict implements Model.
func (m *NetModel) Predict(params tensor.Vector, x tensor.Vector) (int, error) {
	return m.net.Predict(params, x)
}

// Correct returns how many of samples params classifies as labelled: Predict
// over a run of samples, which the network takes a block at a time.
func (m *NetModel) Correct(params tensor.Vector, samples []dataset.Sample) (int, error) {
	return m.net.Correct(params, samples)
}

// blockScorer is the optional fast path of Accuracy: a model that can score a
// run of samples in one call. It is not part of Model — a wrapper that counts
// or times Predict calls does not implement it, and keeps seeing one Predict
// per sample.
type blockScorer interface {
	Correct(params tensor.Vector, samples []dataset.Sample) (int, error)
}

// correct counts the samples m classifies as labelled.
func correct(m Model, params tensor.Vector, samples []dataset.Sample) (int, error) {
	if bs, ok := m.(blockScorer); ok {
		return bs.Correct(params, samples)
	}
	hits := 0
	for _, s := range samples {
		pred, err := m.Predict(params, s.X)
		if err != nil {
			return 0, err
		}
		if pred == s.Label {
			hits++
		}
	}
	return hits, nil
}

// Accuracy evaluates classification accuracy of params over ds.
func Accuracy(m Model, params tensor.Vector, ds *dataset.Dataset) (float64, error) {
	return AccuracyParallel(m, params, ds, 1)
}

// evalChunk is how many test samples one task of AccuracyParallel scores:
// enough to fill the blocks of any net, few enough that a test set cuts into
// many more tasks than there are workers.
const evalChunk = 32

// AccuracyParallel is Accuracy with the test set cut into chunks of evalChunk
// samples fanned out over a goroutine pool of the given size (≤ 1 scores them
// in one serial pass). Every chunk writes only its own hit count and the
// reduction is an integer sum, so the result is identical at any pool, chunk
// or block size.
func AccuracyParallel(m Model, params tensor.Vector, ds *dataset.Dataset, workers int) (float64, error) {
	if ds.Len() == 0 {
		return 0, dataset.ErrEmpty
	}
	if workers <= 1 {
		hits, err := correct(m, params, ds.Samples)
		if err != nil {
			return 0, err
		}
		return float64(hits) / float64(ds.Len()), nil
	}
	hits := make([]int, (ds.Len()+evalChunk-1)/evalChunk)
	err := parallel.ForEach(len(hits), func(c int) error {
		var err error
		hits[c], err = correct(m, params, ds.Samples[c*evalChunk:min((c+1)*evalChunk, ds.Len())])
		return err
	}, parallel.WithWorkers(workers))
	if err != nil {
		return 0, err
	}
	total := 0
	for _, h := range hits {
		total += h
	}
	return float64(total) / float64(ds.Len()), nil
}

func toShape3(sh dataset.Shape) nn.Shape3 {
	return nn.Shape3{C: sh.C, H: sh.H, W: sh.W}
}
