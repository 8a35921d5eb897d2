package core

import (
	"math"
	"testing"
	"testing/quick"

	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/tensor"
)

// buildConfig assembles a small logistic-regression run over a 2-edge ×
// 2-worker hierarchy.
func buildConfig(t *testing.T, edges []int, classesPerWorker int, seed uint64) *fl.Config {
	t.Helper()
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
	numWorkers := 0
	for _, c := range edges {
		numWorkers += c
	}
	var shards []*dataset.Dataset
	if classesPerWorker > 0 {
		shards, err = dataset.PartitionClasses(train, numWorkers, classesPerWorker, seed+2)
	} else {
		shards, err = dataset.PartitionIID(train, numWorkers, seed+2)
	}
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
		T:         40,
		BatchSize: 8,
		Seed:      seed,
	}
}

func TestClampGamma(t *testing.T) {
	tests := []struct {
		name    string
		cos     float64
		ceiling float64
		want    float64
	}{
		{name: "strongly negative", cos: -1, ceiling: 0.99, want: 0},
		{name: "zero", cos: 0, ceiling: 0.99, want: 0},
		{name: "mid", cos: 0.5, ceiling: 0.99, want: 0.5},
		{name: "just below ceiling", cos: 0.98, ceiling: 0.99, want: 0.98},
		{name: "at ceiling", cos: 0.99, ceiling: 0.99, want: 0.99},
		{name: "above ceiling", cos: 1, ceiling: 0.99, want: 0.99},
		{name: "custom ceiling", cos: 0.95, ceiling: 0.9, want: 0.9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ClampGamma(tt.cos, tt.ceiling); got != tt.want {
				t.Errorf("ClampGamma(%v, %v) = %v, want %v", tt.cos, tt.ceiling, got, tt.want)
			}
		})
	}
}

func TestClampGammaPropertyRange(t *testing.T) {
	// Property (eq. 7): γℓ always lands in [0, ceiling].
	f := func(cos float64) bool {
		g := ClampGamma(cos, DefaultClampCeiling)
		return g >= 0 && g <= DefaultClampCeiling
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEdgeCosine(t *testing.T) {
	// One worker, gradient sum g, signal -g: cos(-g, -g) = 1.
	g := tensor.Vector{1, 2}
	neg := tensor.Vector{-1, -2}
	got, err := EdgeCosine([]float64{1}, []tensor.Vector{g}, []tensor.Vector{neg})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("cos = %v, want 1", got)
	}
	// Signal equal to +g: cos(-g, g) = -1.
	got, err = EdgeCosine([]float64{1}, []tensor.Vector{g}, []tensor.Vector{g})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got+1) > 1e-12 {
		t.Errorf("cos = %v, want -1", got)
	}
	// Weighted mix of agree and disagree cancels.
	got, err = EdgeCosine([]float64{0.5, 0.5},
		[]tensor.Vector{g, g}, []tensor.Vector{neg, g})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 1e-12 {
		t.Errorf("cos = %v, want 0", got)
	}
}

func TestEdgeCosineErrors(t *testing.T) {
	if _, err := EdgeCosine([]float64{1}, nil, nil); err == nil {
		t.Error("accepted mismatched slice counts")
	}
}

func TestAdaptSignalString(t *testing.T) {
	if SignalYSum.String() != "ysum" || SignalVelocity.String() != "velocity" {
		t.Error("signal names wrong")
	}
	if AdaptSignal(99).String() == "" {
		t.Error("unknown signal produced empty string")
	}
}

func TestNames(t *testing.T) {
	if New().Name() != "HierAdMo" {
		t.Errorf("adaptive name = %q", New().Name())
	}
	if NewReduced().Name() != "HierAdMo-R" {
		t.Errorf("reduced name = %q", NewReduced().Name())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 0, 1)
	cfg.T = 7 // not a multiple of tau*pi
	if _, err := New().Run(cfg); err == nil {
		t.Error("accepted invalid config")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 2, 3)
	a, err := New().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAcc != b.FinalAcc || a.FinalLoss != b.FinalLoss {
		t.Errorf("non-deterministic: %v/%v vs %v/%v", a.FinalAcc, a.FinalLoss, b.FinalAcc, b.FinalLoss)
	}
}

func TestAdaptedGammaWithinClamp(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 2, 5)
	var observed []float64
	alg := New(WithGammaObserver(func(edge int, g float64) {
		observed = append(observed, g)
	}))
	if _, err := alg.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(observed) == 0 {
		t.Fatal("no γℓ adaptations observed")
	}
	for _, g := range observed {
		if g < 0 || g > DefaultClampCeiling {
			t.Errorf("adapted γℓ = %v outside [0, %v]", g, DefaultClampCeiling)
		}
	}
}

func TestReducedUsesFixedGamma(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 0, 7)
	cfg.GammaEdge = 0.25
	var observed []float64
	alg := NewReduced(WithGammaObserver(func(edge int, g float64) {
		observed = append(observed, g)
	}))
	if _, err := alg.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, g := range observed {
		if g != 0.25 {
			t.Fatalf("reduced variant used γℓ = %v, want fixed 0.25", g)
		}
	}
}

// TestEquivalenceCentralizedNAG: with one edge, one worker, τ = π = 1, and
// γℓ = 0, HierAdMo degenerates to centralized Nesterov accelerated gradient.
// The test replays the identical batch stream manually and compares the
// resulting model exactly (same accuracy, same final mini-batch loss).
func TestEquivalenceCentralizedNAG(t *testing.T) {
	cfg := buildConfig(t, []int{1}, 0, 9)
	cfg.Tau, cfg.Pi, cfg.T = 1, 1, 30
	cfg.GammaEdge = 0

	res, err := NewReduced().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Manual centralized NAG over the same deterministic batch stream.
	hn, err := fl.NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := hn.InitParams()
	y := x.Clone()
	grad := tensor.NewVector(len(x))
	var lastLoss float64
	for step := 0; step < cfg.T; step++ {
		loss, err := hn.Grad(0, x, grad)
		if err != nil {
			t.Fatal(err)
		}
		lastLoss = loss
		yPrev := y.Clone()
		if err := y.CopyFrom(x); err != nil {
			t.Fatal(err)
		}
		if err := y.AXPY(-cfg.Eta, grad); err != nil {
			t.Fatal(err)
		}
		if err := x.CopyFrom(y); err != nil {
			t.Fatal(err)
		}
		if err := x.AXPY(cfg.Gamma, y); err != nil {
			t.Fatal(err)
		}
		if err := x.AXPY(-cfg.Gamma, yPrev); err != nil {
			t.Fatal(err)
		}
	}
	// With γℓ=0 and a single worker the redistributed model is the worker
	// model: x_cloud == the NAG iterate... except redistribution replaces
	// x with y+0 = avg(x) = x, so trajectories match exactly.
	wantAcc, err := model.Accuracy(cfg.Model, x, cfg.Test)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != wantAcc {
		t.Errorf("FinalAcc = %v, centralized NAG = %v", res.FinalAcc, wantAcc)
	}
	if math.Abs(res.FinalLoss-lastLoss) > 1e-9 {
		t.Errorf("FinalLoss = %v, centralized NAG = %v", res.FinalLoss, lastLoss)
	}
}

func TestCurveRecorded(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 0, 11)
	cfg.EvalEvery = 8
	res, err := New().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) < 4 {
		t.Fatalf("curve has %d points, want >= 4", len(res.Curve))
	}
	last := res.Curve[len(res.Curve)-1]
	if last.Iter != cfg.T {
		t.Errorf("last curve point at %d, want %d", last.Iter, cfg.T)
	}
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i].Iter <= res.Curve[i-1].Iter {
			t.Errorf("curve iterations not increasing at %d", i)
		}
	}
}

func TestHierAdMoLearns(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 2, 13)
	cfg.T = 120
	res, err := New().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc < 0.5 { // chance = 0.25
		t.Errorf("final accuracy %.3f, want >= 0.5", res.FinalAcc)
	}
}

func TestVelocitySignalRuns(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 2, 15)
	res, err := New(WithAdaptSignal(SignalVelocity)).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc <= 0 {
		t.Errorf("velocity-signal run accuracy = %v", res.FinalAcc)
	}
}

func TestCustomClampCeiling(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 2, 17)
	var maxGamma float64
	alg := New(WithClampCeiling(0.5), WithGammaObserver(func(_ int, g float64) {
		if g > maxGamma {
			maxGamma = g
		}
	}))
	if _, err := alg.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if maxGamma > 0.5 {
		t.Errorf("γℓ = %v exceeded custom ceiling 0.5", maxGamma)
	}
}
