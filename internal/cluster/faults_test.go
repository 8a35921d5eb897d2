package cluster

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/transport"
)

func TestQuorumCount(t *testing.T) {
	cases := []struct {
		frac float64
		n    int
		want int
	}{
		{0.5, 2, 1},
		{0.5, 4, 2},
		{0.5, 5, 3},
		{0.75, 4, 3},
		{0.1, 4, 1},
		{1, 4, 4},
		{0.01, 100, 1},
	}
	for _, c := range cases {
		if got := quorumCount(c.frac, c.n); got != c.want {
			t.Errorf("quorumCount(%v, %d) = %d, want %d", c.frac, c.n, got, c.want)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{MinQuorum: 1.5}).validate(); err == nil {
		t.Error("MinQuorum > 1 accepted")
	}
	if err := (Options{MinQuorum: -0.1}).validate(); err == nil {
		t.Error("negative MinQuorum accepted")
	}
	if err := (Options{RecvTimeout: -time.Second}).validate(); err == nil {
		t.Error("negative RecvTimeout accepted")
	}
	if err := (Options{MinQuorum: 0.5}.withDefaults()).validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	if !(Options{MinQuorum: 0.5}).tolerant() {
		t.Error("MinQuorum 0.5 not tolerant")
	}
	if (Options{}).withDefaults().tolerant() {
		t.Error("default options tolerant; must be strict fail-stop")
	}
}

// TestClusterStrictJoinedErrors checks that a strict-mode failure surfaces
// every node's error joined — the crashed worker's root cause must not be
// masked by the cascade of downstream timeouts.
func TestClusterStrictJoinedErrors(t *testing.T) {
	cfg := buildConfig(t, 71, 0)
	cfg.T = 8
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
		Seed:         1,
		CrashAtRound: map[string]int{WorkerID(0, 1): 2},
	})
	_, err := Run(cfg, net, Options{Adaptive: true, RecvTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("strict run with a crashed worker succeeded")
	}
	if !errors.Is(err, transport.ErrCrashed) {
		t.Errorf("joined error lost the crash root cause: %v", err)
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("joined error lost the edge timeout: %v", err)
	}
}

// TestClusterQuorumMatchesPartialParticipation is the bit-equivalence
// acceptance check for graceful degradation: a quorum round whose surviving
// cohort matches the cohort a part=0.5 tree samples (topology.Tree.Sample)
// must produce exactly the simulation's model, because the edge renormalizes
// weights over survivors with the same arithmetic in the same order.
func TestClusterQuorumMatchesPartialParticipation(t *testing.T) {
	cfg := buildConfig(t, 67, 2)
	// One edge round that is also a cloud round, so the sampled cohort is in
	// force for the entire run (crashes are permanent, participation is
	// per-round — they only coincide over a single round).
	cfg.Tau, cfg.Pi, cfg.T = 2, 1, 2
	const frac = 0.5

	ref, err := core.New(core.WithParticipation(frac)).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tree, err := cfg.Tree(nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree, err = tree.WithParticipation(frac, cfg.Seed, cfg.T); err != nil {
		t.Fatal(err)
	}
	crashes := make(map[string]int)
	for l := range cfg.Edges {
		sample := tree.Sample(l, 1)
		for i := range cfg.Edges[l] {
			if !slices.Contains(sample, i) {
				crashes[WorkerID(l, i)] = cfg.Tau
			}
		}
	}
	if len(crashes) == 0 {
		t.Fatal("participation schedule sampled full cohorts; test needs stragglers")
	}

	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(),
		transport.FaultPlan{Seed: 1, CrashAtRound: crashes})
	res, err := Run(cfg, net, Options{
		Adaptive:          true,
		MinQuorum:         frac,
		StragglerDeadline: deadlineScale * 100 * time.Millisecond,
		RecvTimeout:       deadlineScale * 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != ref.FinalAcc {
		t.Errorf("quorum cluster FinalAcc %v != participation simulation %v (must be bit-identical)",
			res.FinalAcc, ref.FinalAcc)
	}
	if res.FaultReport == nil {
		t.Fatal("degraded run carries no fault report")
	}
	if got := len(res.FaultReport.Crashed); got != len(crashes) {
		t.Errorf("Crashed reports %d nodes, want %d", got, len(crashes))
	}
	if got := len(res.FaultReport.NodeErrors); got != len(crashes) {
		t.Errorf("NodeErrors has %d entries, want %d", got, len(crashes))
	}
}

// buildChaosConfig is buildConfig with a wider 8-worker [4,4] topology, so
// an edge that loses one worker for good still has quorum margin against
// report drops.
func buildChaosConfig(t *testing.T, seed uint64) *fl.Config {
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
	shards, err := dataset.PartitionIID(train, 8, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, []int{4, 4})
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

// chaosPlan builds the acceptance-test fault schedule: lossy worker→edge
// links plus one worker crashed mid-run. Edge↔cloud links stay clean so the
// cloud's one-miss tolerance is not the thing under test here.
func chaosPlan(cfg *fl.Config) transport.FaultPlan {
	drop := make(map[transport.Link]float64)
	for l := range cfg.Edges {
		for i := range cfg.Edges[l] {
			drop[transport.Link{From: WorkerID(l, i), To: EdgeID(l)}] = 0.12
		}
	}
	return transport.FaultPlan{
		Seed:         9,
		LinkDrop:     drop,
		CrashAtRound: map[string]int{WorkerID(0, 1): 12},
	}
}

// TestClusterChaosDeterministic is the headline robustness acceptance test:
// with ≥10% report loss and a worker crashed mid-run, a quorum run must
// complete, report the faults it survived, still learn, and — because every
// fault decision is drawn from seeded per-link streams — reproduce exactly.
func TestClusterChaosDeterministic(t *testing.T) {
	cfg := buildChaosConfig(t, 73)
	opts := Options{
		Adaptive:          true,
		MinQuorum:         0.5,
		StragglerDeadline: deadlineScale * 100 * time.Millisecond,
		RecvTimeout:       deadlineScale * 2 * time.Second,
	}
	run := func() *fl.Result {
		t.Helper()
		net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), chaosPlan(cfg))
		res, err := Run(cfg, net, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()

	hn, err := fl.NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := model.Accuracy(cfg.Model, hn.InitParams(), cfg.Test)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc <= baseline {
		t.Errorf("chaos run FinalAcc %v did not beat untrained baseline %v", res.FinalAcc, baseline)
	}

	rep := res.FaultReport
	if !rep.Any() {
		t.Fatal("chaos run reports no faults")
	}
	if rep.Dropped == 0 {
		t.Error("no dropped messages recorded despite 15% link loss")
	}
	if len(rep.Crashed) != 1 || rep.Crashed[0] != WorkerID(0, 1) {
		t.Errorf("Crashed = %v, want [%s]", rep.Crashed, WorkerID(0, 1))
	}
	if rep.TotalMissingWorkers() == 0 {
		t.Error("no missing-worker rounds recorded")
	}
	if len(rep.NodeErrors) != 1 {
		t.Errorf("NodeErrors = %v, want the crashed worker only", rep.NodeErrors)
	}
	if s := rep.String(); !strings.Contains(s, WorkerID(0, 1)) {
		t.Errorf("report text %q does not name the crashed node", s)
	}

	again := run()
	if res.FinalAcc != again.FinalAcc || res.FinalLoss != again.FinalLoss {
		t.Errorf("chaos run not deterministic: %v/%v vs %v/%v",
			res.FinalAcc, res.FinalLoss, again.FinalAcc, again.FinalLoss)
	}
}

// TestClusterEdgeCrashCloudReusesState crashes an edge right before the last
// cloud sync: the cloud must substitute that edge's previous report for the
// one missed sync and still finish.
func TestClusterEdgeCrashCloudReusesState(t *testing.T) {
	cfg := buildConfig(t, 79, 0)
	// Edge rounds end at t = 2,4,...,24; cloud syncs at t = 4,8,...,24. A
	// crash at round 21 kills edge-1 after the t=20 sync, so only the final
	// sync sees it missing.
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
		Seed:         2,
		CrashAtRound: map[string]int{EdgeID(1): 21},
	})
	res, err := Run(cfg, net, Options{
		Adaptive:          true,
		MinQuorum:         0.5,
		StragglerDeadline: deadlineScale * 100 * time.Millisecond,
		RecvTimeout:       deadlineScale * 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.FaultReport
	if rep == nil {
		t.Fatal("no fault report after an edge crash")
	}
	if len(rep.Crashed) != 1 || rep.Crashed[0] != EdgeID(1) {
		t.Errorf("Crashed = %v, want [%s]", rep.Crashed, EdgeID(1))
	}
	if rep.MissingEdges[cfg.T] != 1 {
		t.Errorf("MissingEdges = %v, want 1 at the final sync (t=%d)", rep.MissingEdges, cfg.T)
	}
	if res.FinalAcc <= 0 {
		t.Errorf("degraded run produced no model: FinalAcc = %v", res.FinalAcc)
	}
}

// TestClusterQuorumUnreachableFailsFast: even in tolerant mode, an edge that
// misses two consecutive cloud syncs makes the run fail (with the timeout
// cause preserved) instead of silently training on ever-staler state.
func TestClusterQuorumUnreachableFailsFast(t *testing.T) {
	cfg := buildConfig(t, 83, 0)
	// Edge-1 dies at round 10 and therefore misses the t=12 and t=16 syncs.
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
		Seed:         3,
		CrashAtRound: map[string]int{EdgeID(1): 10},
	})
	_, err := Run(cfg, net, Options{
		Adaptive:          true,
		MinQuorum:         0.5,
		StragglerDeadline: 50 * time.Millisecond,
		RecvTimeout:       300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("run with a permanently dead edge succeeded")
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("err = %v, want wrapped ErrTimeout", err)
	}
	if !strings.Contains(err.Error(), "consecutive") {
		t.Errorf("err = %v, want the consecutive-miss diagnosis", err)
	}
}

// TestClusterSurvivesLostCloudUpdates drops a third of the cloud→edge-0
// update messages: the edge must repeatedly recover via ride-out or
// fast-forward and the run must still complete and learn.
func TestClusterSurvivesLostCloudUpdates(t *testing.T) {
	cfg := buildConfig(t, 97, 0)
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
		Seed: 6,
		LinkDrop: map[transport.Link]float64{
			{From: CloudID, To: EdgeID(0)}: 0.34,
		},
	})
	res, err := Run(cfg, net, Options{
		Adaptive:          true,
		MinQuorum:         0.5,
		StragglerDeadline: deadlineScale * 100 * time.Millisecond,
		RecvTimeout:       deadlineScale * 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultReport == nil || res.FaultReport.Dropped == 0 {
		t.Fatal("no drops recorded on a lossy cloud→edge link")
	}
	if res.FinalAcc < 0.4 { // chance = 0.25
		t.Errorf("FinalAcc = %v after lost cloud updates, want >= 0.4", res.FinalAcc)
	}
}
