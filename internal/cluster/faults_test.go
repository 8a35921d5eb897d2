package cluster

import (
	"errors"
	"math"
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

// edgeUnderTest builds edge-0 of cfg's derived tree as a bare tierNode, for
// tests that drive collect/update directly.
func edgeUnderTest(t *testing.T, cfg *fl.Config, hn *fl.Harness, ep transport.Endpoint, opts Options) *tierNode {
	t.Helper()
	opts = opts.withDefaults()
	ts, err := newTreeSpec(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := newTierNode(cfg, hn, ts, 1, 0, hn.InitParams(), ep, opts)
	e.rec = newFaultRecorder(nil)
	return e
}

// TestEdgeDuplicateReportRejected regression-tests the collection bug where a
// duplicate report overwrote its slot while inflating the reporter count,
// leaving a zero-valued Message (nil vectors) in the aggregation.
func TestEdgeDuplicateReportRejected(t *testing.T) {
	cfg := buildConfig(t, 61, 0)
	hn, err := fl.NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemoryNetwork()
	defer net.Close()
	edgeEP, err := net.Endpoint(EdgeID(0))
	if err != nil {
		t.Fatal(err)
	}
	w0, err := net.Endpoint(WorkerID(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	w1, err := net.Endpoint(WorkerID(0, 1))
	if err != nil {
		t.Fatal(err)
	}

	x0 := hn.InitParams()
	e := edgeUnderTest(t, cfg, hn, edgeEP, Options{Adaptive: true})

	report := func(ep transport.Endpoint) {
		t.Helper()
		v := x0.Clone()
		msg := transport.Message{
			Kind:    KindTierReport,
			Round:   cfg.Tau,
			Vectors: [][]float64{v, v.Clone()},
			Scalars: map[string]float64{ScalarLoss: 1, ScalarCos: 0.5},
		}
		if err := ep.Send(EdgeID(0), msg); err != nil {
			t.Fatal(err)
		}
	}
	report(w0)
	report(w0) // duplicate: must not count as a second distinct reporter
	report(w1)

	adopted, reports, idx, err := e.collect(1)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 0 {
		t.Fatalf("adopted = %d, want 0 (no cloud update in flight)", adopted)
	}
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Fatalf("idx = %v, want [0 1]", idx)
	}
	for _, i := range idx {
		if len(reports[i].Vectors) != 2 {
			t.Fatalf("slot %d holds %d vectors (zero-valued duplicate slot?)", i, len(reports[i].Vectors))
		}
	}
	if e.rec.rep.DuplicateReports != 1 {
		t.Errorf("DuplicateReports = %d, want 1", e.rec.rep.DuplicateReports)
	}
	// The aggregation over the collected slots must not touch nil vectors.
	if err := e.update(reports, idx, 1); err != nil {
		t.Errorf("update after duplicate: %v", err)
	}
}

// TestEdgeRejectsMalformedTerm: an adaptive leaf-parent admits a report only
// with an eq. (6) term in [-1, 1]. A missing, NaN or infinite term, or one out
// of range, fails the round the way a wrong vector count does — with
// ErrMalformedReport, naming the sender — since no honest leaf sends one.
// A plain-average parent reads no term and needs none.
func TestEdgeRejectsMalformedTerm(t *testing.T) {
	cfg := buildConfig(t, 61, 0)
	hn, err := fl.NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := hn.InitParams()
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name     string
		adaptive bool
		vectors  int
		scalars  map[string]float64
		ok       bool
	}{
		{"term 1", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: 1}, true},
		{"term -1", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: -1}, true},
		{"term -0", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: negZero}, true},
		{"no term, plain parent", false, 2, map[string]float64{ScalarLoss: 1}, true},
		{"no term", true, 2, map[string]float64{ScalarLoss: 1}, false},
		{"no scalars", true, 2, nil, false},
		{"NaN term", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: math.NaN()}, false},
		{"+Inf term", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: math.Inf(1)}, false},
		{"-Inf term", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: math.Inf(-1)}, false},
		{"term above 1", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: math.Nextafter(1, 2)}, false},
		{"term below -1", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: -1.5}, false},
		{"four vectors", true, 4, map[string]float64{ScalarLoss: 1, ScalarCos: 0.5}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewMemoryNetwork()
			defer net.Close()
			edgeEP, err := net.Endpoint(EdgeID(0))
			if err != nil {
				t.Fatal(err)
			}
			e := edgeUnderTest(t, cfg, hn, edgeEP, Options{Adaptive: tc.adaptive})
			for i, scalars := range []map[string]float64{tc.scalars, {ScalarLoss: 1, ScalarCos: 0.5}} {
				ep, err := net.Endpoint(WorkerID(0, i))
				if err != nil {
					t.Fatal(err)
				}
				n := 2
				if i == 0 {
					n = tc.vectors
				}
				vecs := make([][]float64, n)
				for v := range vecs {
					vecs[v] = x0.Clone()
				}
				if err := ep.Send(EdgeID(0), transport.Message{Kind: KindTierReport, Round: cfg.Tau, Vectors: vecs, Scalars: scalars}); err != nil {
					t.Fatal(err)
				}
			}
			_, reports, idx, err := e.collect(1)
			if !tc.ok {
				if !errors.Is(err, ErrMalformedReport) || !strings.Contains(err.Error(), WorkerID(0, 0)) {
					t.Fatalf("collect = %v, want a wrapped ErrMalformedReport naming %s", err, WorkerID(0, 0))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(idx) != 2 {
				t.Fatalf("admitted %v, want both workers", idx)
			}
			if err := e.update(reports, idx, 1); err != nil {
				t.Fatal(err)
			}
		})
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
// cohort matches the cohort WithParticipation samples must produce exactly
// the simulation's model, because the edge renormalizes weights over
// survivors with the same arithmetic in the same order.
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

	workersPerEdge := make([]int, cfg.NumEdges())
	for l := range cfg.Edges {
		workersPerEdge[l] = len(cfg.Edges[l])
	}
	cohorts := core.ParticipationSchedule(cfg.Seed, frac, workersPerEdge, 1)
	crashes := make(map[string]int)
	for l, n := range workersPerEdge {
		part := make(map[int]bool)
		for _, i := range cohorts[0][l] {
			part[i] = true
		}
		for i := 0; i < n; i++ {
			if !part[i] {
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

// TestEdgeAdoptsMidCollectCloudUpdate regression-tests the desync found by
// chaos-driving flcluster: when every report of one round is lost, the cloud
// completes the sync without this edge and its update arrives while the edge
// is still collecting. The edge must adopt that update and fast-forward —
// discarding it as stale left the edge permanently one sync behind, every
// subsequent report stale, until the miss-streak limit killed the run.
func TestEdgeAdoptsMidCollectCloudUpdate(t *testing.T) {
	cfg := buildConfig(t, 91, 0)
	hn, err := fl.NewHarness(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemoryNetwork()
	defer net.Close()
	edgeEP, err := net.Endpoint(EdgeID(0))
	if err != nil {
		t.Fatal(err)
	}
	cloudEP, err := net.Endpoint(CloudID)
	if err != nil {
		t.Fatal(err)
	}

	x0 := hn.InitParams()
	opts := Options{
		MinQuorum:         0.5,
		StragglerDeadline: 50 * time.Millisecond,
		RecvTimeout:       2 * time.Second,
	}
	e := edgeUnderTest(t, cfg, hn, edgeEP, opts)

	// The cloud finished the second sync (round 2τπ) while this edge never
	// saw a single round-τ report.
	want := 2 * cfg.Tau * cfg.Pi
	y := x0.Clone()
	y[0] += 1
	x := x0.Clone()
	x[0] += 2
	update := transport.Message{
		Kind:    KindTierUpdate,
		Round:   want,
		Vectors: [][]float64{y, x},
	}
	if err := cloudEP.Send(EdgeID(0), update); err != nil {
		t.Fatal(err)
	}

	adopted, _, _, err := e.collect(1)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != want {
		t.Fatalf("adopted = %d, want %d", adopted, want)
	}
	if e.tier.YMinus[0] != y[0] || e.tier.XPlus[0] != x[0] {
		t.Errorf("edge state not adopted from the cloud update: y[0]=%v x[0]=%v",
			e.tier.YMinus[0], e.tier.XPlus[0])
	}

	// Strict mode must keep discarding out-of-band cloud updates as stale:
	// strict edges never give up on a sync, so such an update cannot be a
	// legitimate fast-forward signal mid-collect.
	strict := edgeUnderTest(t, cfg, hn, edgeEP, Options{RecvTimeout: 200 * time.Millisecond})
	if err := cloudEP.Send(EdgeID(0), update); err != nil {
		t.Fatal(err)
	}
	adopted, _, _, err = strict.collect(1)
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("strict collect: adopted=%d err=%v, want timeout", adopted, err)
	}
	if strict.rec.rep.StaleMessages != 1 {
		t.Errorf("strict StaleMessages = %d, want 1", strict.rec.rep.StaleMessages)
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
