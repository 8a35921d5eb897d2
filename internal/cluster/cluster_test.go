package cluster

import (
	"errors"
	"math"
	"testing"
	"time"

	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/transport"
)

func buildConfig(t *testing.T, seed uint64, classesPerWorker int) *fl.Config {
	t.Helper()
	genCfg := dataset.GenConfig{
		Name:          "toy",
		Shape:         dataset.Shape{C: 1, H: 5, W: 5},
		NumClasses:    4,
		TemplateScale: 1.0,
		NoiseStd:      0.6,
		SmoothPasses:  1,
	}
	g, err := dataset.NewGenerator(genCfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	train, test := g.TrainTest(320, 80, seed+1)
	var shards []*dataset.Dataset
	if classesPerWorker > 0 {
		shards, err = dataset.PartitionClasses(train, 4, classesPerWorker, seed+2)
	} else {
		shards, err = dataset.PartitionIID(train, 4, seed+2)
	}
	if err != nil {
		t.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticRegression(genCfg.Shape, genCfg.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	return &fl.Config{
		Model: m, Edges: hier, Test: test,
		Eta: 0.05, Gamma: 0.5, GammaEdge: 0.5,
		Tau: 2, Pi: 2, T: 24, BatchSize: 8, Seed: seed,
		EvalEvery: 8,
	}
}

func TestProtocolIDs(t *testing.T) {
	if CloudID != "cloud" || EdgeID(3) != "edge-3" || WorkerID(2, 5) != "worker-2-5" {
		t.Error("ID formats wrong")
	}
}

func TestExpectKind(t *testing.T) {
	msg := transport.Message{Kind: "a", From: "x"}
	if err := expectKind(msg, "a"); err != nil {
		t.Error(err)
	}
	if err := expectKind(msg, "b"); err == nil {
		t.Error("kind mismatch accepted")
	}
}

// TestClusterMatchesSimulation is the load-bearing distributed-correctness
// test: a cluster run must produce exactly the same final model quality as
// the in-process reference simulation, because both drive the same update
// kernel and gradient step with identical inputs in identical order. The
// clip case pins that cfg.ClipNorm reaches the leaves: before the shared
// gradient step the cluster trained unclipped (0.9875 / 0.1479 against the
// simulation's 0.925 / 0.6872 on this config).
func TestClusterMatchesSimulation(t *testing.T) {
	cases := []struct {
		name     string
		adaptive bool
		clip     float64
	}{
		{name: "adaptive", adaptive: true},
		{name: "reduced"},
		{name: "clip", adaptive: true, clip: 0.05},
	}
	nets := []struct {
		name string
		new  func() Network
	}{
		{"memory", func() Network { return transport.NewMemoryNetwork() }},
		{"tcp", func() Network { return transport.NewTCPNetwork() }},
	}
	for _, tc := range cases {
		for _, nw := range nets {
			if nw.name == "tcp" && tc.clip == 0 {
				continue // TCP ≡ memory is TestClusterOverTCPMatchesMemory's job
			}
			t.Run(tc.name+"/"+nw.name, func(t *testing.T) {
				cfg := buildConfig(t, 31, 2)
				cfg.ClipNorm = tc.clip
				cfg.Telemetry = telemetry.New(telemetry.NewRegistry(), nil)
				alg := core.NewReduced()
				if tc.adaptive {
					alg = core.New()
				}
				ref, err := alg.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				refClips := cfg.Telemetry.M().GradClips.Value()

				cfg.Telemetry = telemetry.New(telemetry.NewRegistry(), nil)
				res, err := Run(cfg, nw.new(), Options{Adaptive: tc.adaptive})
				if err != nil {
					t.Fatal(err)
				}
				if res.FinalAcc != ref.FinalAcc {
					t.Errorf("cluster FinalAcc %v != simulation %v (models must be bit-identical)",
						res.FinalAcc, ref.FinalAcc)
				}
				// The loss reduction tree differs (the cloud sums edge-weighted
				// partial sums, the simulation sums a flat weighted series), so
				// the losses agree only to rounding.
				if math.Abs(res.FinalLoss-ref.FinalLoss) > 1e-12*(1+math.Abs(ref.FinalLoss)) {
					t.Errorf("cluster FinalLoss %v != simulation %v", res.FinalLoss, ref.FinalLoss)
				}
				clips := cfg.Telemetry.M().GradClips.Value()
				if clips != refClips || (tc.clip > 0) != (clips > 0) {
					t.Errorf("fl_grad_clips_total = %d from the leaves, %d in the simulation (ClipNorm %v)",
						clips, refClips, tc.clip)
				}
			})
		}
	}
}

func TestClusterOverTCPMatchesMemory(t *testing.T) {
	cfg := buildConfig(t, 37, 0)
	mem, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := Run(cfg, transport.NewTCPNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if mem.FinalAcc != tcp.FinalAcc || mem.FinalLoss != tcp.FinalLoss {
		t.Errorf("TCP run (%v/%v) differs from memory run (%v/%v)",
			tcp.FinalAcc, tcp.FinalLoss, mem.FinalAcc, mem.FinalLoss)
	}
}

func TestClusterRobustToDeliveryDelays(t *testing.T) {
	// Random per-message delays reorder arrivals across senders; the
	// index-addressed aggregation must keep results identical.
	cfg := buildConfig(t, 41, 2)
	ref, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := Run(cfg,
		transport.NewMemoryNetwork(transport.WithDelay(3*time.Millisecond, 7)),
		Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.FinalAcc != delayed.FinalAcc {
		t.Errorf("delayed run %v differs from reference %v", delayed.FinalAcc, ref.FinalAcc)
	}
}

func TestClusterMessageLossSurfacesAsTimeout(t *testing.T) {
	// With messages being dropped, the synchronous protocol must fail fast
	// with a timeout instead of hanging.
	cfg := buildConfig(t, 43, 0)
	cfg.T = 8
	_, err := Run(cfg,
		transport.NewMemoryNetwork(transport.WithDropRate(1.0, 11)),
		Options{Adaptive: true, RecvTimeout: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("run with total message loss succeeded")
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("err = %v, want wrapped ErrTimeout", err)
	}
}

func TestClusterRejectsInvalidConfig(t *testing.T) {
	cfg := buildConfig(t, 47, 0)
	cfg.T = 7 // not a multiple of tau*pi
	if _, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestClusterCurveRecorded(t *testing.T) {
	cfg := buildConfig(t, 53, 0)
	res, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) == 0 {
		t.Fatal("no curve points")
	}
	last := res.Curve[len(res.Curve)-1]
	if last.Iter != cfg.T {
		t.Errorf("last point at %d, want %d", last.Iter, cfg.T)
	}
	if res.Algorithm != "HierAdMo/cluster" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
	red, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: false})
	if err != nil {
		t.Fatal(err)
	}
	if red.Algorithm != "HierAdMo-R/cluster" {
		t.Errorf("reduced algorithm = %q", red.Algorithm)
	}
}

func TestClusterVelocitySignal(t *testing.T) {
	cfg := buildConfig(t, 59, 2)
	refCore := core.New(core.WithAdaptSignal(core.SignalVelocity))
	ref, err := refCore.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, transport.NewMemoryNetwork(),
		Options{Adaptive: true, Signal: core.SignalVelocity})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != ref.FinalAcc {
		t.Errorf("velocity cluster %v != simulation %v", res.FinalAcc, ref.FinalAcc)
	}
}

func TestClusterPartialLossAlsoTimesOut(t *testing.T) {
	// Even 50% message loss must eventually surface as a timeout error
	// rather than a hang or a silent wrong result.
	cfg := buildConfig(t, 113, 0)
	cfg.T = 8
	_, err := Run(cfg,
		transport.NewMemoryNetwork(transport.WithDropRate(0.5, 17)),
		Options{Adaptive: true, RecvTimeout: 150 * time.Millisecond})
	if err == nil {
		t.Fatal("run with 50% loss succeeded")
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("err = %v, want wrapped ErrTimeout", err)
	}
}

// TestClusterMatchesSimulationCNN repeats the bit-equivalence check with a
// He-initialized CNN, which exercises the x⁰-centred adaptation signal (the
// zero-initialized logistic model cannot distinguish it from raw Σy).
func TestClusterMatchesSimulationCNN(t *testing.T) {
	cfg := buildConfig(t, 131, 2)
	m, err := model.NewCNN(dataset.Shape{C: 1, H: 5, W: 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = m
	ref, err := core.New().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != ref.FinalAcc {
		t.Errorf("CNN cluster %v != simulation %v", res.FinalAcc, ref.FinalAcc)
	}
}
