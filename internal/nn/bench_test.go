package nn_test

import (
	"testing"

	"hieradmo/internal/dataset"
	"hieradmo/internal/model"
	"hieradmo/internal/nn"
	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
)

// Micro-benchmarks for the training substrate's hot path: one forward pass
// and one loss-gradient (forward + backward) per architecture family, plus
// the single-Dense classifiers at the shapes the runs train — the kernel
// rung of the benchmark ladder, recorded in BENCH_kernels.json by `make
// bench` and gated by `make benchdiff`. The package is external so the
// classifiers come from internal/model, which imports nn.

func benchNet(b *testing.B, net *nn.Network, err error) (*nn.Network, tensor.Vector, []float64) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	params := net.Init(r)
	x := make([]float64, net.InputSize())
	for i := range x {
		x[i] = r.Norm()
	}
	return net, params, x
}

// benchSteady times step in the steady state: one untimed call first builds
// the network's workspace, so B/op does not depend on what -benchtime
// divides that one-off by.
func benchSteady(b *testing.B, step func() error) {
	b.Helper()
	if err := step(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchForward(b *testing.B, net *nn.Network, err error) {
	net, params, x := benchNet(b, net, err)
	benchSteady(b, func() error {
		_, err := net.Forward(params, x)
		return err
	})
}

func benchLossGrad(b *testing.B, net *nn.Network, err error) {
	net, params, x := benchNet(b, net, err)
	grad := tensor.NewVector(net.Dim())
	benchSteady(b, func() error {
		grad.Zero()
		_, err := net.LossGrad(params, x, 0, grad)
		return err
	})
}

func denseNet() (*nn.Network, error) {
	return nn.Sequential(nn.SoftmaxCrossEntropy{},
		nn.NewDense(196, 64),
		nn.NewReLU(nn.Shape3{C: 1, H: 1, W: 64}),
		nn.NewDense(64, 10),
	)
}

func convNet() (*nn.Network, error) {
	in := nn.Shape3{C: 1, H: 14, W: 14}
	conv1 := nn.NewConv2D(in, 8, 3, 1)
	relu1 := nn.NewReLU(conv1.OutShape())
	pool1 := nn.NewMaxPool2D(relu1.OutShape())
	conv2 := nn.NewConv2D(pool1.OutShape(), 16, 3, 1)
	relu2 := nn.NewReLU(conv2.OutShape())
	pool2 := nn.NewMaxPool2D(relu2.OutShape())
	flat := nn.NewFlatten(pool2.OutShape())
	return nn.Sequential(nn.SoftmaxCrossEntropy{},
		conv1, relu1, pool1, conv2, relu2, pool2, flat,
		nn.NewDense(pool2.OutShape().Size(), 10),
	)
}

func residualNet() (*nn.Network, error) {
	in := nn.Shape3{C: 3, H: 16, W: 16}
	stem := nn.NewConv2D(in, 8, 3, 1)
	relu := nn.NewReLU(stem.OutShape())
	res := nn.NewResidual(relu.OutShape())
	pool := nn.NewMaxPool2D(res.OutShape())
	flat := nn.NewFlatten(pool.OutShape())
	return nn.Sequential(nn.SoftmaxCrossEntropy{},
		stem, relu, res, pool, flat,
		nn.NewDense(pool.OutShape().Size(), 20),
	)
}

func BenchmarkForwardDense(b *testing.B) {
	net, err := denseNet()
	benchForward(b, net, err)
}

func BenchmarkForwardConv(b *testing.B) {
	net, err := convNet()
	benchForward(b, net, err)
}

func BenchmarkForwardResidual(b *testing.B) {
	net, err := residualNet()
	benchForward(b, net, err)
}

func BenchmarkLossGradDense(b *testing.B) {
	net, err := denseNet()
	benchLossGrad(b, net, err)
}

func BenchmarkLossGradConv(b *testing.B) {
	net, err := convNet()
	benchLossGrad(b, net, err)
}

func BenchmarkLossGradResidual(b *testing.B) {
	net, err := residualNet()
	benchLossGrad(b, net, err)
}

// benchClassifier times one step of a single-Dense softmax classifier built
// by model.NewLogisticRegression, on a batch of eight samples: "forward" is
// eight Network.Forward calls (each a block of one sample and a copy of its
// output), "lossgrad" the model's whole mini-batch gradient (zero, the batch
// through forward and backward as one block, scale), "accuracy" the batch
// scored as a test set by model.Accuracy (one forward block, eight argmaxes).
func benchClassifier(b *testing.B, features, classes int, what string) {
	const batchSize = 8
	m, err := model.NewLogisticRegression(dataset.Shape{C: 1, H: 1, W: features}, classes)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	params := tensor.NewVector(m.Dim())
	for i := range params {
		params[i] = r.Norm()
	}
	batch := make([]dataset.Sample, batchSize)
	for i := range batch {
		x := tensor.NewVector(features)
		for j := range x {
			x[j] = r.Norm()
		}
		batch[i] = dataset.Sample{X: x, Label: i % classes}
	}
	grad := tensor.NewVector(m.Dim())
	test := &dataset.Dataset{NumClasses: classes, Samples: batch}
	benchSteady(b, func() error {
		switch what {
		case "lossgrad":
			_, err := m.LossGrad(params, batch, grad)
			return err
		case "accuracy":
			_, err := model.Accuracy(m, params, test)
			return err
		}
		for _, s := range batch {
			if _, err := m.Network().Forward(params, s.X); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkLogistic is the sync family's model: 768 → 20.
func BenchmarkLogistic(b *testing.B) {
	for _, what := range []string{"forward", "lossgrad", "accuracy"} {
		b.Run(what, func(b *testing.B) { benchClassifier(b, 768, 20, what) })
	}
}

// BenchmarkDenseHead is the CNN's classifier head: 784 → 10.
func BenchmarkDenseHead(b *testing.B) {
	b.Run("lossgrad", func(b *testing.B) { benchClassifier(b, 784, 10, "lossgrad") })
}
