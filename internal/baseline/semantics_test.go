package baseline

import (
	"testing"

	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/tensor"
)

// The tests below pin each baseline to its defining degenerate behaviour:
// with the right hyper-parameters the algorithms collapse onto one another
// exactly, which catches any drift in the update rules.

// datasetAlias keeps the hierarchy literals below readable.
type datasetAlias = dataset.Dataset

// accuracyOf evaluates params on the config's full test set.
func accuracyOf(cfg *fl.Config, params tensor.Vector) (float64, error) {
	return model.Accuracy(cfg.Model, params, cfg.Test)
}

func TestFedAvgSingleWorkerIsSGD(t *testing.T) {
	// One worker, aggregation is the identity ⇒ FedAvg is plain SGD. Replay
	// SGD manually over the same batch stream and compare exactly.
	cfg := buildConfig(t, 71)
	cfg.Edges = cfg.Edges[:1]
	cfg.Edges[0] = cfg.Edges[0][:1]
	cfg.T = 24
	cfg.EvalEvery = 0

	res, err := NewFedAvg().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	hn, err := fl.NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := hn.InitParams()
	grad := tensor.NewVector(len(x))
	for step := 0; step < cfg.T; step++ {
		if _, err := hn.Grad(0, x, grad); err != nil {
			t.Fatal(err)
		}
		if err := x.AXPY(-cfg.Eta, grad); err != nil {
			t.Fatal(err)
		}
	}
	acc, err := accuracyOf(cfg, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != acc {
		t.Errorf("FedAvg single-worker %v != manual SGD %v", res.FinalAcc, acc)
	}
}

func TestMimeZeroGammaIsFedAvg(t *testing.T) {
	// With γ = 0, Mime's local step is x ← x − η·g and its momentum is
	// never applied ⇒ identical to FedAvg.
	cfg := buildConfig(t, 73)
	cfg.Gamma = 0
	cfg.T = 24
	cfg.EvalEvery = 0
	mime, err := NewMime().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fedavg, err := NewFedAvg().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mime.FinalAcc != fedavg.FinalAcc {
		t.Errorf("Mime(γ=0) %v != FedAvg %v", mime.FinalAcc, fedavg.FinalAcc)
	}
}

func TestFedADCZeroGammaEdgeIsFedAvg(t *testing.T) {
	// With γℓ = 0 the drift-control term vanishes and the server momentum
	// is never mixed in ⇒ FedADC is FedAvg.
	cfg := buildConfig(t, 79)
	cfg.GammaEdge = 0
	cfg.T = 24
	cfg.EvalEvery = 0
	adc, err := NewFedADC().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fedavg, err := NewFedAvg().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if adc.FinalAcc != fedavg.FinalAcc {
		t.Errorf("FedADC(γℓ=0) %v != FedAvg %v", adc.FinalAcc, fedavg.FinalAcc)
	}
}

func TestSlowMoZeroMomentaIsFedAvg(t *testing.T) {
	// γ = 0 kills the local momentum (v accumulates −ηg then x += v — the
	// SGD step) and γℓ = 0 makes the server update x ← x − (x − avg) = avg.
	cfg := buildConfig(t, 83)
	cfg.Gamma = 0
	cfg.GammaEdge = 0
	cfg.T = 24
	cfg.EvalEvery = 0
	slowmo, err := NewSlowMo().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fedavg, err := NewFedAvg().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slowmo.FinalAcc != fedavg.FinalAcc {
		t.Errorf("SlowMo(γ=γℓ=0) %v != FedAvg %v", slowmo.FinalAcc, fedavg.FinalAcc)
	}
}

func TestFedMomZeroGammaEdgeIsFedAvg(t *testing.T) {
	cfg := buildConfig(t, 89)
	cfg.GammaEdge = 0
	cfg.T = 24
	cfg.EvalEvery = 0
	fedmom, err := NewFedMom().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fedavg, err := NewFedAvg().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fedmom.FinalAcc != fedavg.FinalAcc {
		t.Errorf("FedMom(γℓ=0) %v != FedAvg %v", fedmom.FinalAcc, fedavg.FinalAcc)
	}
}

func TestFastSlowMoZeroGammaEdgeIsFedNAG(t *testing.T) {
	// With γℓ = 0 the aggregator momentum disappears and FastSlowMo reduces
	// to FedNAG (model + momentum averaging).
	cfg := buildConfig(t, 97)
	cfg.GammaEdge = 0
	cfg.T = 24
	cfg.EvalEvery = 0
	fsm, err := NewFastSlowMo().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fednag, err := NewFedNAG().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fsm.FinalAcc != fednag.FinalAcc {
		t.Errorf("FastSlowMo(γℓ=0) %v != FedNAG %v", fsm.FinalAcc, fednag.FinalAcc)
	}
}

func TestHierFAVGSingleTierIsFedAvg(t *testing.T) {
	// With one edge holding all workers and π = 1, HierFAVG's edge
	// aggregation every τ is exactly FedAvg's aggregation every τ·π.
	cfg := buildConfig(t, 101)
	var flat []*datasetAlias
	for _, edge := range cfg.Edges {
		flat = append(flat, edge...)
	}
	cfg.Edges = [][]*datasetAlias{flat}
	cfg.Pi = 1
	cfg.T = 24
	cfg.EvalEvery = 0
	hier, err := NewHierFAVG().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fedavg, err := NewFedAvg().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hier.FinalAcc != fedavg.FinalAcc {
		t.Errorf("HierFAVG(L=1,π=1) %v != FedAvg %v", hier.FinalAcc, fedavg.FinalAcc)
	}
}
