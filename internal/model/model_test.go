package model

import (
	"math"
	"testing"

	"hieradmo/internal/dataset"
	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
)

func smallShape() dataset.Shape { return dataset.Shape{C: 1, H: 6, W: 6} }

func genData(t *testing.T, cfg dataset.GenConfig, n int) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	g, err := dataset.NewGenerator(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	train, test := g.TrainTest(n, n/2, 13)
	return train, test
}

func smallGenConfig() dataset.GenConfig {
	return dataset.GenConfig{
		Name:          "toy",
		Shape:         smallShape(),
		NumClasses:    4,
		TemplateScale: 1.0,
		NoiseStd:      0.5,
		SmoothPasses:  1,
		WarpStd:       0.1,
	}
}

func TestByName(t *testing.T) {
	sh := smallShape()
	for _, name := range []string{"linear", "logistic", "cnn", "cnn-gap", "vgg-mini", "resnet-mini"} {
		t.Run(name, func(t *testing.T) {
			m, err := ByName(name, sh, 4)
			if err != nil {
				t.Fatal(err)
			}
			if m.Dim() <= 0 {
				t.Errorf("Dim = %d", m.Dim())
			}
		})
	}
	if _, err := ByName("transformer", sh, 4); err == nil {
		t.Error("accepted unknown model name")
	}
}

func TestByNameAliases(t *testing.T) {
	sh := dataset.Shape{C: 3, H: 12, W: 12}
	for _, alias := range []string{"vgg", "vgg16", "resnet", "resnet18"} {
		if _, err := ByName(alias, sh, 10); err != nil {
			t.Errorf("alias %q: %v", alias, err)
		}
	}
}

func TestLossGradMatchesFiniteDifference(t *testing.T) {
	// Model-level gradient check over a real batch, for each model family.
	train, _ := genData(t, smallGenConfig(), 12)
	for _, name := range []string{"linear", "logistic", "cnn", "cnn-gap"} {
		t.Run(name, func(t *testing.T) {
			m, err := ByName(name, train.Shape, train.NumClasses)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(3)
			params := m.Init(r)
			for i := range params {
				params[i] += 0.02 * r.Norm()
			}
			batch := train.Samples[:6]
			grad := tensor.NewVector(m.Dim())
			if _, err := m.LossGrad(params, batch, grad); err != nil {
				t.Fatal(err)
			}
			const h = 1e-5
			stride := 1
			if m.Dim() > 200 {
				stride = m.Dim() / 200
			}
			for i := 0; i < m.Dim(); i += stride {
				orig := params[i]
				params[i] = orig + h
				lp, err := m.Loss(params, batch)
				if err != nil {
					t.Fatal(err)
				}
				params[i] = orig - h
				lm, err := m.Loss(params, batch)
				if err != nil {
					t.Fatal(err)
				}
				params[i] = orig
				numeric := (lp - lm) / (2 * h)
				scale := math.Max(1, math.Abs(numeric))
				if math.Abs(numeric-grad[i])/scale > 1e-4 {
					t.Fatalf("param %d: analytic %v vs numeric %v", i, grad[i], numeric)
				}
			}
		})
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	m, err := NewLogisticRegression(smallShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	params := m.Init(rng.New(1))
	grad := tensor.NewVector(m.Dim())
	if _, err := m.LossGrad(params, nil, grad); err == nil {
		t.Error("LossGrad accepted empty batch")
	}
	if _, err := m.Loss(params, nil); err == nil {
		t.Error("Loss accepted empty batch")
	}
}

func TestAccuracyEmptyDataset(t *testing.T) {
	m, err := NewLogisticRegression(smallShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	params := m.Init(rng.New(1))
	if _, err := Accuracy(m, params, &dataset.Dataset{}); err == nil {
		t.Error("Accuracy accepted empty dataset")
	}
}

func TestModelsTrainAboveChance(t *testing.T) {
	// Each model family, trained with plain SGD, must beat chance on the
	// separable synthetic task. This is the end-to-end sanity check that the
	// substrate can actually learn.
	train, test := genData(t, smallGenConfig(), 400)
	for _, name := range []string{"linear", "logistic", "cnn", "cnn-gap", "vgg-mini", "resnet-mini"} {
		t.Run(name, func(t *testing.T) {
			m, err := ByName(name, train.Shape, train.NumClasses)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(17)
			params := m.Init(r)
			grad := tensor.NewVector(m.Dim())
			for step := 0; step < 250; step++ {
				batch, err := train.Batch(r, 16)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.LossGrad(params, batch, grad); err != nil {
					t.Fatal(err)
				}
				if err := params.AXPY(-0.05, grad); err != nil {
					t.Fatal(err)
				}
			}
			acc, err := Accuracy(m, params, test)
			if err != nil {
				t.Fatal(err)
			}
			if acc < 0.5 { // chance is 0.25 on 4 classes
				t.Errorf("accuracy %.3f, want >= 0.5", acc)
			}
			if !params.IsFinite() {
				t.Error("parameters diverged to non-finite values")
			}
		})
	}
}

func TestPaperModelsBuildOnPaperShapes(t *testing.T) {
	tests := []struct {
		name    string
		cfg     dataset.GenConfig
		model   string
		classes int
	}{
		{name: "linear-mnist", cfg: dataset.MNISTConfig(), model: "linear"},
		{name: "logistic-mnist", cfg: dataset.MNISTConfig(), model: "logistic"},
		{name: "cnn-mnist", cfg: dataset.MNISTConfig(), model: "cnn"},
		{name: "cnn-cifar", cfg: dataset.CIFAR10Config(), model: "cnn"},
		{name: "vgg-cifar", cfg: dataset.CIFAR10Config(), model: "vgg-mini"},
		{name: "resnet-imagenet", cfg: dataset.ImageNetConfig(), model: "resnet-mini"},
		{name: "cnn-har", cfg: dataset.HARConfig(), model: "cnn"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := ByName(tt.model, tt.cfg.Shape, tt.cfg.NumClasses)
			if err != nil {
				t.Fatal(err)
			}
			params := m.Init(rng.New(1))
			g, err := dataset.NewGenerator(tt.cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			ds := g.Generate(4, 2)
			grad := tensor.NewVector(m.Dim())
			if _, err := m.LossGrad(params, ds.Samples, grad); err != nil {
				t.Fatalf("LossGrad on %s: %v", tt.name, err)
			}
			if !grad.IsFinite() {
				t.Error("non-finite gradient")
			}
		})
	}
}

func TestDimMatchesNetwork(t *testing.T) {
	m, err := NewCNN(smallShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != m.Network().Dim() {
		t.Errorf("Dim %d != network dim %d", m.Dim(), m.Network().Dim())
	}
	if m.Name() != "cnn" {
		t.Errorf("Name = %q", m.Name())
	}
}

// zooCases is every zoo model at a toy shape, where even the conv nets fit
// several samples in a block (so layers without a block body are driven slot
// by slot), and the two benchmark families at the shapes they train: the
// logistic model in blocks of ten, the CNN in blocks of one.
func zooCases() []zooCase {
	var cases []zooCase
	for _, name := range []string{"linear", "logistic", "cnn", "cnn-gap", "vgg-mini", "resnet-mini"} {
		cases = append(cases, zooCase{name, smallGenConfig()})
	}
	return append(cases,
		zooCase{"logistic", dataset.ImageNetConfig()},
		zooCase{"cnn", dataset.MNISTConfig()})
}

type zooCase struct {
	model string
	cfg   dataset.GenConfig
}

// TestBlockLossGradMatchesPerSample: a mini-batch gradient must not depend on
// how the network cuts the batch into blocks. The reference is the per-sample
// loop — zero, one LossGrad per sample in batch order, scale — and the batch
// sizes put a block boundary before, on and after the end of the batch, with
// a ragged last block. Loss and every gradient element, bit for bit.
func TestBlockLossGradMatchesPerSample(t *testing.T) {
	for _, tc := range zooCases() {
		t.Run(tc.model+"/"+tc.cfg.Name, func(t *testing.T) {
			train, _ := genData(t, tc.cfg, 40)
			m, err := ByName(tc.model, train.Shape, train.NumClasses)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(5)
			params := m.Init(r)
			for i := range params {
				params[i] += 0.05 * r.Norm()
			}
			got, want := tensor.NewVector(m.Dim()), tensor.NewVector(m.Dim())
			for _, size := range []int{1, 3, 8, 9, 33} {
				batch := train.Samples[:size]
				gotLoss, err := m.LossGrad(params, batch, got)
				if err != nil {
					t.Fatal(err)
				}
				want.Zero()
				var total float64
				for _, s := range batch {
					loss, err := m.Network().LossGrad(params, s.X, s.Label, want)
					if err != nil {
						t.Fatal(err)
					}
					total += loss
				}
				inv := 1 / float64(size)
				want.Scale(inv)
				if wantLoss := total * inv; math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
					t.Fatalf("batch %d: loss %v, per-sample %v", size, gotLoss, wantLoss)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("batch %d: grad[%d] = %v, per-sample %v", size, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// predictOnly hides a model's block scorer, as a wrapper that counts Predict
// calls does: Accuracy must fall back to one Predict per sample.
type predictOnly struct{ Model }

// TestAccuracyBlocksMatchPredict: the block forward pass classifies every
// sample as Predict does, whatever the pool size cuts the test set into.
func TestAccuracyBlocksMatchPredict(t *testing.T) {
	for _, tc := range zooCases() {
		t.Run(tc.model+"/"+tc.cfg.Name, func(t *testing.T) {
			_, test := genData(t, tc.cfg, 150) // 75 samples: two chunks and a ragged third
			m, err := ByName(tc.model, test.Shape, test.NumClasses)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(9)
			params := m.Init(r)
			for i := range params {
				params[i] += 0.05 * r.Norm()
			}
			hits := 0
			for _, s := range test.Samples {
				pred, err := m.Predict(params, s.X)
				if err != nil {
					t.Fatal(err)
				}
				if pred == s.Label {
					hits++
				}
			}
			want := float64(hits) / float64(test.Len())
			for _, workers := range []int{1, 2, 8} {
				for _, scored := range []Model{m, predictOnly{m}} {
					got, err := AccuracyParallel(scored, params, test, workers)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("pool %d, %T: accuracy %v, Predict gives %v", workers, scored, got, want)
					}
				}
			}
		})
	}
}
