package fl

import (
	"errors"
	"math"
	"testing"

	"hieradmo/internal/dataset"
	"hieradmo/internal/model"
	"hieradmo/internal/tensor"
)

func testConfig(t *testing.T) *Config {
	t.Helper()
	cfg := dataset.GenConfig{
		Name:          "toy",
		Shape:         dataset.Shape{C: 1, H: 4, W: 4},
		NumClasses:    3,
		TemplateScale: 1.0,
		NoiseStd:      0.5,
		SmoothPasses:  1,
	}
	g, err := dataset.NewGenerator(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, test := g.TrainTest(240, 60, 5)
	shards, err := dataset.PartitionIID(train, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := dataset.Hierarchy(shards, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticRegression(cfg.Shape, cfg.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	return &Config{
		Model:     m,
		Edges:     edges,
		Test:      test,
		Eta:       0.05,
		Gamma:     0.5,
		GammaEdge: 0.5,
		Tau:       2,
		Pi:        2,
		T:         16,
		BatchSize: 8,
		Seed:      11,
		EvalEvery: 4,
	}
}

func TestConfigValidate(t *testing.T) {
	base := testConfig(t)
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{name: "nil model", mut: func(c *Config) { c.Model = nil }},
		{name: "no edges", mut: func(c *Config) { c.Edges = nil }},
		{name: "nil test", mut: func(c *Config) { c.Test = nil }},
		{name: "zero eta", mut: func(c *Config) { c.Eta = 0 }},
		{name: "gamma too big", mut: func(c *Config) { c.Gamma = 1 }},
		{name: "negative gamma", mut: func(c *Config) { c.Gamma = -0.1 }},
		{name: "gammaEdge too big", mut: func(c *Config) { c.GammaEdge = 1.5 }},
		{name: "zero tau", mut: func(c *Config) { c.Tau = 0 }},
		{name: "zero pi", mut: func(c *Config) { c.Pi = 0 }},
		{name: "zero T", mut: func(c *Config) { c.T = 0 }},
		{name: "T not multiple", mut: func(c *Config) { c.T = 15 }},
		{name: "zero batch", mut: func(c *Config) { c.BatchSize = 0 }},
		{name: "negative eval", mut: func(c *Config) { c.EvalEvery = -1 }},
		{name: "empty edge", mut: func(c *Config) { c.Edges = append(c.Edges, nil) }},
		{name: "empty shard", mut: func(c *Config) { c.Edges[0][0] = &dataset.Dataset{} }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			cfg := *base
			cfg.Edges = append([][]*dataset.Dataset{}, base.Edges...)
			cfg.Edges[0] = append([]*dataset.Dataset{}, base.Edges[0]...)
			tt.mut(&cfg)
			if err := cfg.Validate(); !errors.Is(err, ErrConfig) {
				t.Errorf("err = %v, want ErrConfig", err)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestConfigCounts(t *testing.T) {
	cfg := testConfig(t)
	if cfg.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", cfg.NumEdges())
	}
	if cfg.NumWorkers() != 4 {
		t.Errorf("NumWorkers = %d", cfg.NumWorkers())
	}
}

func TestHarnessWeights(t *testing.T) {
	hn, err := NewHarness(testConfig(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	tree := hn.Tree()
	for i, level := range tree.Weights {
		for j, ws := range level {
			var s float64
			for _, w := range ws {
				s += w
			}
			if math.Abs(s-1) > 1e-12 {
				t.Errorf("level %d node %d child weights sum = %v", i, j, s)
			}
		}
	}
	var globalSum float64
	for _, w := range tree.Global {
		globalSum += w
	}
	if math.Abs(globalSum-1) > 1e-12 {
		t.Errorf("global weights sum = %v", globalSum)
	}
}

func TestHarnessGradDeterministic(t *testing.T) {
	cfg := testConfig(t)
	h1, err := NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := h1.InitParams()
	g1 := tensor.NewVector(len(p))
	g2 := tensor.NewVector(len(p))
	l1, err := h1.Grad(1, p, g1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := h2.Grad(1, p, g2)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Errorf("losses differ: %v vs %v", l1, l2)
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("gradients differ at %d", i)
		}
	}
}

func TestHarnessWorkerStreamsDiffer(t *testing.T) {
	hn, err := NewHarness(testConfig(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := hn.InitParams()
	gA := tensor.NewVector(len(p))
	gB := tensor.NewVector(len(p))
	if _, err := hn.Grad(0, p, gA); err != nil {
		t.Fatal(err)
	}
	if _, err := hn.Grad(2, p, gB); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range gA {
		if gA[i] != gB[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("two different workers produced identical mini-batch gradients")
	}
}

func TestEdgeAverage(t *testing.T) {
	hn, err := NewHarness(testConfig(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	dim := 3
	ones := tensor.Vector{1, 1, 1}
	twos := tensor.Vector{2, 2, 2}
	dst := tensor.NewVector(dim)
	// Equal-size IID shards → equal weights → plain mean.
	if err := hn.EdgeAverage(dst, 0, []tensor.Vector{ones, twos}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(dst[0]-1.5) > 1e-12 {
		t.Errorf("edge average = %v, want 1.5", dst[0])
	}
}

func TestEvalSubsetCap(t *testing.T) {
	cfg := testConfig(t)
	cfg.EvalSamples = 10
	hn, err := NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hn.evalSet.Len() != 10 {
		t.Errorf("eval subset len = %d, want 10", hn.evalSet.Len())
	}
	cfg.EvalSamples = 10_000 // larger than test set → full set
	hn, err = NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hn.evalSet.Len() != cfg.Test.Len() {
		t.Errorf("eval subset len = %d, want full %d", hn.evalSet.Len(), cfg.Test.Len())
	}
}

func TestShouldEval(t *testing.T) {
	cfg := testConfig(t)
	hn, err := NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hn.ShouldEval(4) || hn.ShouldEval(5) {
		t.Error("ShouldEval schedule wrong")
	}
	if hn.ShouldEval(cfg.T) {
		t.Error("ShouldEval fired at T (Finish records that point)")
	}
	cfg2 := testConfig(t)
	cfg2.EvalEvery = 0
	hn2, err := NewHarness(cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hn2.ShouldEval(4) {
		t.Error("ShouldEval fired with EvalEvery = 0")
	}
}

func TestRecordAndFinish(t *testing.T) {
	hn, err := NewHarness(testConfig(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := hn.NewResult("test")
	p := hn.InitParams()
	if err := hn.RecordPoint(res, 4, p); err != nil {
		t.Fatal(err)
	}
	if err := hn.Finish(res, p); err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) != 2 {
		t.Fatalf("curve has %d points", len(res.Curve))
	}
	if res.Curve[1].Iter != hn.Cfg().T {
		t.Errorf("final point at iter %d, want %d", res.Curve[1].Iter, hn.Cfg().T)
	}
	if res.FinalAcc < 0 || res.FinalAcc > 1 {
		t.Errorf("FinalAcc = %v", res.FinalAcc)
	}
}

func TestResultHelpers(t *testing.T) {
	res := &Result{
		Algorithm: "x",
		Curve: []Point{
			{Iter: 10, TestAcc: 0.3},
			{Iter: 20, TestAcc: 0.6},
			{Iter: 30, TestAcc: 0.9},
		},
	}
	if got := res.AccuracyAt(25); got != 0.6 {
		t.Errorf("AccuracyAt(25) = %v", got)
	}
	if got := res.AccuracyAt(5); got != 0 {
		t.Errorf("AccuracyAt(5) = %v", got)
	}
	it, ok := res.IterToReach(0.5)
	if !ok || it != 20 {
		t.Errorf("IterToReach(0.5) = %d,%v", it, ok)
	}
	if _, ok := res.IterToReach(0.95); ok {
		t.Error("IterToReach(0.95) should fail")
	}
	if res.String() == "" {
		t.Error("empty String()")
	}
}

func TestGradClipping(t *testing.T) {
	cfg := testConfig(t)
	cfg.ClipNorm = 1e-6 // force clipping on every batch
	hn, err := NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := hn.InitParams()
	g := tensor.NewVector(len(p))
	if _, err := hn.Grad(0, p, g); err != nil {
		t.Fatal(err)
	}
	if norm := g.Norm(); norm > cfg.ClipNorm*1.0001 {
		t.Errorf("clipped gradient norm %v exceeds clip %v", norm, cfg.ClipNorm)
	}
	cfg2 := testConfig(t)
	cfg2.ClipNorm = -1
	if err := cfg2.Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("negative clip err = %v", err)
	}
}

func TestWorkerSamplerMatchesHarness(t *testing.T) {
	// The exported sampler must replay exactly the harness's batch stream —
	// the property the distributed runtime depends on.
	cfg := testConfig(t)
	hn, err := NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	independent := WorkerSampler(cfg.Seed, 1, 0)
	p := hn.InitParams()
	g := tensor.NewVector(len(p))
	if _, err := hn.Grad(2, p, g); err != nil {
		t.Fatal(err)
	}
	batch, err := cfg.Edges[1][0].Batch(independent, cfg.BatchSize)
	if err != nil {
		t.Fatal(err)
	}
	g2 := tensor.NewVector(len(p))
	if _, err := cfg.Model.LossGrad(p, batch, g2); err != nil {
		t.Fatal(err)
	}
	for i := range g {
		if g[i] != g2[i] {
			t.Fatalf("sampler replay diverges at %d", i)
		}
	}
}

func TestEvalSetExported(t *testing.T) {
	cfg := testConfig(t)
	cfg.EvalSamples = 12
	hn, err := NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hn.EvalSet().Len() != 12 {
		t.Errorf("EvalSet len = %d", hn.EvalSet().Len())
	}
}
