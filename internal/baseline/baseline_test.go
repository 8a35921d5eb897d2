package baseline

import (
	"testing"

	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
)

func buildConfig(t *testing.T, seed uint64) *fl.Config {
	t.Helper()
	return buildConfigEdges(t, seed, []int{2, 2})
}

// buildConfigEdges is buildConfig over an arbitrary workers-per-edge shape.
func buildConfigEdges(t *testing.T, seed uint64, edges []int) *fl.Config {
	t.Helper()
	workers := 0
	for _, c := range edges {
		workers += c
	}
	cfg := dataset.GenConfig{
		Name:          "toy",
		Shape:         dataset.Shape{C: 1, H: 5, W: 5},
		NumClasses:    4,
		TemplateScale: 1.0,
		NoiseStd:      0.6,
		SmoothPasses:  1,
	}
	g, err := dataset.NewGenerator(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	train, test := g.TrainTest(400, 120, seed+1)
	shards, err := dataset.PartitionIID(train, workers, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, edges)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticRegression(cfg.Shape, cfg.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	return &fl.Config{
		Model:     m,
		Edges:     hier,
		Test:      test,
		Eta:       0.05,
		Gamma:     0.5,
		GammaEdge: 0.5,
		Tau:       2,
		Pi:        2,
		T:         120,
		BatchSize: 8,
		Seed:      seed,
		EvalEvery: 40,
	}
}

func allAlgorithms() []fl.Algorithm {
	return []fl.Algorithm{
		NewHierFAVG(),
		NewCFL(),
		NewFedAvg(),
		NewFedNAG(),
		NewFedMom(),
		NewSlowMo(),
		NewMime(),
		NewFastSlowMo(),
		NewFedADC(),
	}
}

func TestNames(t *testing.T) {
	want := map[string]bool{
		"HierFAVG": true, "CFL": true, "FedAvg": true, "FedNAG": true,
		"FedMom": true, "SlowMo": true, "Mime": true, "FastSlowMo": true,
		"FedADC": true,
	}
	for _, alg := range allAlgorithms() {
		if !want[alg.Name()] {
			t.Errorf("unexpected algorithm name %q", alg.Name())
		}
		delete(want, alg.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing algorithms: %v", want)
	}
}

func TestAllBaselinesLearn(t *testing.T) {
	// Every baseline must run to completion, record a well-formed curve, and
	// beat chance (0.25 on 4 classes) on the easy IID task.
	for _, alg := range allAlgorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := buildConfig(t, 21)
			res, err := alg.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != alg.Name() {
				t.Errorf("result algorithm %q", res.Algorithm)
			}
			if res.FinalAcc < 0.5 {
				t.Errorf("final accuracy %.3f, want >= 0.5", res.FinalAcc)
			}
			if len(res.Curve) == 0 || res.Curve[len(res.Curve)-1].Iter != cfg.T {
				t.Errorf("malformed curve (%d points)", len(res.Curve))
			}
		})
	}
}

func TestAllBaselinesDeterministic(t *testing.T) {
	for _, alg := range allAlgorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := buildConfig(t, 23)
			cfg.T = 40
			cfg.EvalEvery = 0
			a, err := alg.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := alg.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.FinalAcc != b.FinalAcc || a.FinalLoss != b.FinalLoss {
				t.Errorf("non-deterministic run: %v/%v vs %v/%v",
					a.FinalAcc, a.FinalLoss, b.FinalAcc, b.FinalLoss)
			}
		})
	}
}

func TestBaselinesRejectBadConfig(t *testing.T) {
	cfg := buildConfig(t, 25)
	cfg.Eta = -1
	for _, alg := range allAlgorithms() {
		if _, err := alg.Run(cfg); err == nil {
			t.Errorf("%s accepted invalid config", alg.Name())
		}
	}
}

// TestMomentumHelpsNonIID checks the paper's core ordering on a non-IID
// workload: the momentum-based two-tier algorithm (FedNAG) should reach at
// least the accuracy neighbourhood of plain FedAvg, and hierarchical
// averaging (HierFAVG) should not trail FedAvg materially. These are shape
// assertions with generous tolerances to stay robust across seeds.
func TestMomentumHelpsNonIID(t *testing.T) {
	base := buildConfig(t, 29)
	shards, err := dataset.PartitionClasses(mergeShards(base), 4, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	base.Edges = hier
	base.T = 160
	base.EvalEvery = 0

	fedavg, err := NewFedAvg().Run(base)
	if err != nil {
		t.Fatal(err)
	}
	fednag, err := NewFedNAG().Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if fednag.FinalAcc < fedavg.FinalAcc-0.1 {
		t.Errorf("FedNAG %.3f materially below FedAvg %.3f on non-IID data",
			fednag.FinalAcc, fedavg.FinalAcc)
	}
}

// mergeShards reassembles the training dataset from a config's edges.
func mergeShards(cfg *fl.Config) *dataset.Dataset {
	merged := &dataset.Dataset{}
	for _, edge := range cfg.Edges {
		for _, shard := range edge {
			if merged.NumClasses == 0 {
				merged.Name = shard.Name
				merged.Shape = shard.Shape
				merged.NumClasses = shard.NumClasses
			}
			merged.Samples = append(merged.Samples, shard.Samples...)
		}
	}
	return merged
}
