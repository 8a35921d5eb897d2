package hieradmo

import (
	"strings"
	"testing"
)

func tinyScale() Scale {
	s := BenchScale()
	s.TrainSamples = 300
	s.TestSamples = 100
	s.TConvex = 40
	s.TNonConvex = 40
	s.BatchSize = 4
	s.EvalEvery = 20
	s.EvalSamples = 60
	return s
}

func TestFacadeBuildAndRun(t *testing.T) {
	cfg, err := BuildConfig(Workload{Dataset: "mnist", Model: "logistic"}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	res, err := New().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "HierAdMo" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
	if res.FinalAcc <= 0 || res.FinalAcc > 1 {
		t.Errorf("FinalAcc = %v", res.FinalAcc)
	}
}

func TestFacadeReducedAndOptions(t *testing.T) {
	cfg, err := BuildConfig(Workload{Dataset: "mnist", Model: "logistic"}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	alg := NewReduced(WithClampCeiling(0.9))
	res, err := alg.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "HierAdMo-R" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
}

func TestFacadeAlgorithms(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 11 {
		t.Fatalf("%d algorithms, want 11", len(algos))
	}
}

func TestFacadeExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 14 {
		t.Fatalf("%d experiment ids", len(ids))
	}
	for _, id := range ids {
		if id == "" {
			t.Error("empty experiment id")
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("nope", tinyScale()); err == nil {
		t.Error("accepted unknown experiment id")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %v does not name the bad id", err)
	}
}

func TestRunExperimentSmall(t *testing.T) {
	tbl, err := RunExperiment("fig2i", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.Render(), "adaptive") {
		t.Error("fig2i table missing adaptive row")
	}
}

func TestScalePresets(t *testing.T) {
	if err := BenchScale().Validate(); err != nil {
		t.Error(err)
	}
	if err := DefaultScale().Validate(); err != nil {
		t.Error(err)
	}
	if BenchScale().TrainSamples >= DefaultScale().TrainSamples {
		t.Error("bench scale should be smaller than default scale")
	}
}

func TestFacadeExtensionOptions(t *testing.T) {
	cfg, err := BuildConfig(Workload{Dataset: "mnist", Model: "logistic"}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	alg := New(WithParticipation(0.5), WithUplinkQuantization(8))
	res, err := alg.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc <= 0 {
		t.Errorf("FinalAcc = %v", res.FinalAcc)
	}
}
