package cluster

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/transport"
)

func TestRecoveryOptionsValidate(t *testing.T) {
	if err := (Options{Resume: true}).withDefaults().validate(); err == nil {
		t.Error("Resume without CheckpointDir accepted")
	}
	if err := (Options{Resume: true, CheckpointDir: t.TempDir()}).withDefaults().validate(); err != nil {
		t.Errorf("valid resume options rejected: %v", err)
	}
}

func TestPendingStashRoundtrip(t *testing.T) {
	const dim = 3
	v := func(base float64) []float64 { return []float64{base, base + 1, base + 2} }
	msgs := []transport.Message{
		{
			From: WorkerID(0, 2), Kind: KindTierReport, Round: 6,
			Vectors: [][]float64{v(1), v(10), v(20), v(30)},
			Scalars: map[string]float64{ScalarLoss: 0.5},
		},
		{From: "bogus", Kind: KindTierReport, Round: 6, Vectors: [][]float64{v(0), v(0), v(0), v(0)}},
		{From: WorkerID(0, 1), Kind: KindTierReport, Round: 8, Vectors: [][]float64{v(2), v(3)}}, // wrong arity
		{
			From: WorkerID(0, 0), Kind: KindTierReport, Round: 8,
			Vectors: [][]float64{v(4), v(5), v(6), v(7)},
			Scalars: map[string]float64{ScalarLoss: 1.25},
		},
	}
	ids := []string{WorkerID(0, 0), WorkerID(0, 1), WorkerID(0, 2)}
	flat := encodePending(nil, msgs, 4, dim, func(from string) (int, bool) {
		for i, id := range ids {
			if id == from {
				return i, true
			}
		}
		return 0, false
	})
	// Two well-formed records survive; the malformed sender and wrong-arity
	// messages are dropped, as admission would drop them after a resume.
	if wantLen := 2 * (3 + 4*dim); len(flat) != wantLen {
		t.Fatalf("encoded length %d, want %d", len(flat), wantLen)
	}
	out, err := decodePending(flat, 4, dim, KindTierReport, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("decoded %d messages, want 2", len(out))
	}
	if out[0].From != WorkerID(0, 2) || out[0].Round != 6 || out[0].Scalars[ScalarLoss] != 0.5 {
		t.Errorf("first record = %+v", out[0])
	}
	if out[1].From != WorkerID(0, 0) || out[1].Round != 8 || out[1].Scalars[ScalarLoss] != 1.25 {
		t.Errorf("second record = %+v", out[1])
	}
	for r, msg := range out {
		if msg.Kind != KindTierReport || len(msg.Vectors) != 4 {
			t.Fatalf("record %d malformed: %+v", r, msg)
		}
	}
	if out[0].Vectors[3][1] != 31 || out[1].Vectors[0][2] != 6 {
		t.Errorf("vector payloads scrambled: %v / %v", out[0].Vectors[3], out[1].Vectors[0])
	}

	if _, err := decodePending(flat[:len(flat)-1], 4, dim, KindTierReport, ids); err == nil {
		t.Error("truncated stash accepted")
	}
	bad := append([]float64(nil), flat...)
	bad[0] = 6.5 // non-integral round
	if _, err := decodePending(bad, 4, dim, KindTierReport, ids); err == nil {
		t.Error("non-integral round accepted")
	}
	if _, err := decodePending(flat, 4, dim, KindTierReport, ids[:2]); err == nil {
		t.Error("sender index outside the child level accepted")
	}
}

// TestClusterInterruptResume is the graceful-shutdown acceptance test: a run
// interrupted mid-flight must fail with a wrapped ErrInterrupted, leave
// resumable snapshots behind, and — because nodes snapshot only settled
// per-round state and replay the tail interval deterministically — a resumed
// run must finish with results bit-identical to a never-interrupted run.
func TestClusterInterruptResume(t *testing.T) {
	cfg := buildConfig(t, 101, 0)
	cfg.T = 48
	dir := t.TempDir()
	opts := Options{Adaptive: true, CheckpointDir: dir}

	ref, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt as soon as any node has written a snapshot; the run must fail
	// with a wrapped ErrInterrupted.
	interruptRun(t, cfg, opts, transport.NewFaultyNetwork(transport.NewMemoryNetwork(),
		transport.FaultPlan{Seed: 4, MaxDelay: 2 * time.Millisecond}))
	if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) == 0 {
		t.Fatal("interrupted run left no snapshots behind")
	}

	ropts := opts
	ropts.Resume = true
	res, err := Run(cfg, transport.NewMemoryNetwork(), ropts)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != ref.FinalAcc || res.FinalLoss != ref.FinalLoss {
		t.Errorf("resumed run %v/%v != uninterrupted run %v/%v (must be bit-identical)",
			res.FinalAcc, res.FinalLoss, ref.FinalAcc, ref.FinalLoss)
	}
	if len(res.Curve) != len(ref.Curve) {
		t.Fatalf("resumed curve has %d points, reference %d", len(res.Curve), len(ref.Curve))
	}
	for i := range res.Curve {
		if res.Curve[i] != ref.Curve[i] {
			t.Errorf("curve point %d: resumed %+v != reference %+v", i, res.Curve[i], ref.Curve[i])
		}
	}

	// Resuming under different algorithm options must be refused: those
	// snapshots belong to a different trajectory. Checked after the good
	// resume, when every node has a snapshot to mismatch against instantly.
	// Against the interrupted run's partial snapshot set, a subtree whose
	// nodes all missed their first save can complete a round and overwrite
	// good snapshots with wrong-options ones before the refusal propagates.
	wrong := opts
	wrong.Resume = true
	wrong.Ceiling = 0.5
	wrong.RecvTimeout = deadlineScale * 500 * time.Millisecond
	if _, err := Run(cfg, transport.NewMemoryNetwork(), wrong); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume under changed options = %v, want wrapped checkpoint.ErrMismatch", err)
	}
}

// buildRecoveryConfig is a single-edge three-worker topology sized for the
// crash/restart equivalence test: cloud sync every edge round, two rounds
// total, so a crashed worker's outage can span the whole run and its revival
// can land exactly on the final redistribution.
func buildRecoveryConfig(t *testing.T, seed uint64) *fl.Config {
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
	train, test := g.TrainTest(240, 60, seed+1)
	shards, err := dataset.PartitionIID(train, 3, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, []int{3})
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
		Tau: 2, Pi: 1, T: 4, BatchSize: 8, Seed: seed,
	}
}

// TestClusterCrashRestartMatchesParticipation is the crash-recovery
// bit-equivalence acceptance test: a worker that crashes before its first
// report and revives exactly at the final redistribution leaves the same
// surviving cohort in force for the whole run as the matched
// WithParticipation simulation, so the final model must be bit-identical.
// The revival is pinned to the last round deliberately — a worker that
// rejoins mid-run re-enters from adopted cloud state while a simulation
// non-participant trains through the outage, so earlier revivals cannot be
// exact.
func TestClusterCrashRestartMatchesParticipation(t *testing.T) {
	// Seed 3 samples cohort {0, 2} in both rounds (asserted below), leaving
	// worker 1 as the simulation's non-participant and our crash target.
	cfg := buildRecoveryConfig(t, 3)
	const frac = 2.0 / 3
	sched := core.ParticipationSchedule(cfg.Seed, frac, []int{3}, 2)
	for k := range sched {
		c := sched[k][0]
		if len(c) != 2 || c[0] != 0 || c[1] != 2 {
			t.Fatalf("round %d cohort = %v, want [0 2]; the seed no longer matches the RNG", k, c)
		}
	}

	ref, err := core.New(core.WithParticipation(frac)).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	down := WorkerID(0, 1)
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
		Seed:               1,
		CrashAtRound:       map[string]int{down: 2},
		RestartAfterRounds: map[string]int{down: 2}, // back for round 4, the final redistribution
	})
	res, err := Run(cfg, net, Options{
		Adaptive:          true,
		MinQuorum:         frac,
		StragglerDeadline: deadlineScale * 100 * time.Millisecond,
		RecvTimeout:       deadlineScale * 2 * time.Second,
		CheckpointDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != ref.FinalAcc {
		t.Errorf("crash/restart cluster FinalAcc %v != participation simulation %v (must be bit-identical)",
			res.FinalAcc, ref.FinalAcc)
	}
	rep := res.FaultReport
	if rep == nil {
		t.Fatal("no fault report after a crash/restart run")
	}
	if len(rep.Crashed) != 1 || rep.Crashed[0] != down {
		t.Errorf("Crashed = %v, want [%s]", rep.Crashed, down)
	}
	if len(rep.Restarted) != 1 || rep.Restarted[0] != down {
		t.Errorf("Restarted = %v, want [%s]", rep.Restarted, down)
	}
}

// TestClusterWorkerRestartRejoins exercises the full in-process recovery
// path: a worker with two snapshots behind it is crashed mid-run, the fault
// plan revives it a few rounds later, and the supervisor must respawn it from
// its checkpoint so it replays its lost interval, fast-forwards through the
// missed rounds, rejoins the cohort, and the run completes and still learns.
func TestClusterWorkerRestartRejoins(t *testing.T) {
	cfg := buildChaosConfig(t, 103)
	down := WorkerID(0, 1)
	net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
		Seed:               5,
		CrashAtRound:       map[string]int{down: 6},
		RestartAfterRounds: map[string]int{down: 4}, // outage [6, 10): misses rounds 6 and 8
	})
	res, err := Run(cfg, net, Options{
		Adaptive:          true,
		MinQuorum:         0.5,
		StragglerDeadline: deadlineScale * 100 * time.Millisecond,
		RecvTimeout:       deadlineScale * 2 * time.Second,
		CheckpointDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}

	hn, err := fl.NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := model.Accuracy(cfg.Model, hn.InitParams(), cfg.Test)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc <= baseline {
		t.Errorf("restart run FinalAcc %v did not beat untrained baseline %v", res.FinalAcc, baseline)
	}

	rep := res.FaultReport
	if rep == nil {
		t.Fatal("no fault report after a restart run")
	}
	if len(rep.Crashed) != 1 || rep.Crashed[0] != down {
		t.Errorf("Crashed = %v, want [%s]", rep.Crashed, down)
	}
	if len(rep.Restarted) != 1 || rep.Restarted[0] != down {
		t.Errorf("Restarted = %v, want [%s]", rep.Restarted, down)
	}
	if len(rep.NodeErrors) != 1 {
		t.Errorf("NodeErrors = %v, want only the crashed incarnation's error", rep.NodeErrors)
	}
	// The respawned incarnation replays its lost interval and re-sends the
	// report for the round it died in; the edge, rounds ahead by then, must
	// reject that replayed report as stale.
	if rep.StaleMessages == 0 {
		t.Error("no stale messages recorded; the respawned worker's replayed report vanished")
	}
	if rep.TotalMissingWorkers() == 0 {
		t.Error("no missing-worker rounds recorded during the outage")
	}
}
