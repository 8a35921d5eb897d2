package model

import (
	"testing"

	"hieradmo/internal/dataset"
	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
)

// TestLossGradAllocFree pins the training step's steady state at every zoo
// model and every dataset shape the experiments use: once a first call has
// built the network's workspace, a mini-batch gradient allocates nothing. A
// layer's per-call buffers — the conv scatter's lists of non-zero gradients
// among them — come out of that workspace, so no plane size makes one.
func TestLossGradAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins are not held under the race detector")
	}
	configs := []dataset.GenConfig{dataset.MNISTConfig(), dataset.CIFAR10Config(),
		dataset.ImageNetConfig(), dataset.HARConfig()}
	for _, name := range []string{"linear", "logistic", "cnn", "cnn-gap", "vgg-mini", "resnet-mini"} {
		for _, cfg := range configs {
			t.Run(name+"/"+cfg.Name, func(t *testing.T) {
				m, err := ByName(name, cfg.Shape, cfg.NumClasses)
				if err != nil {
					t.Fatal(err)
				}
				g, err := dataset.NewGenerator(cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				batch := g.Generate(8, 2).Samples
				params := m.Init(rng.New(1))
				grad := tensor.NewVector(m.Dim())
				step := func() {
					if _, err := m.Network().LossGradBatch(params, batch, grad); err != nil {
						t.Fatal(err)
					}
				}
				step()
				if n := testing.AllocsPerRun(5, step); n != 0 {
					t.Errorf("LossGradBatch allocates %v times per call", n)
				}
			})
		}
	}
}
