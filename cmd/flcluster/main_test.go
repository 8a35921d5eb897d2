package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hieradmo"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
)

func TestRunUnknownTransport(t *testing.T) {
	if err := run([]string{"-transport", "carrier-pigeon"}, nil); err == nil {
		t.Error("unknown transport accepted")
	}
}

func TestRunUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}, nil); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}, nil); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunRestartWithoutCrash(t *testing.T) {
	if err := run([]string{"-restart-after", "worker-0-1@4"}, nil); err == nil {
		t.Error("-restart-after without a matching -crash accepted")
	}
}

// TestRunRefusesNodesOutsideTheTree: a plan naming a node the run's tree
// does not have, an attack on a node that is not a training leaf, or
// -aggregator defaults a tree has no separate levels for is refused before
// the run starts, naming the tree.
func TestRunRefusesNodesOutsideTheTree(t *testing.T) {
	const spec = "-topology cloud:tau=20/edge*2:tau=10/worker*2"
	for _, tc := range []struct{ args, want string }{
		{"-attack-plan signflip:worker-9-9@1", `"worker-9-9", not a training leaf of the tree cloud:tau=20/edge*2:tau=10/worker*2`},
		{"-attack-plan signflip:edge-0@1", `"edge-0", not a training leaf of the tree cloud:`},
		{"-crash worker-9-9@3 -min-quorum 0.5", `-crash: "worker-9-9" is not a node of the tree cloud:`},
		{"-crash worker-9-9@3 -restart-after worker-9-9@2 -min-quorum 0.5", `-crash: "worker-9-9" is not a node of the tree cloud:`},
		{spec + " -attack-plan signflip:worker-0-0@1", `"worker-0-0", not a training leaf of the tree cloud:tau=20/edge*2:tau=10/worker*2`},
		{spec + " -crash worker-0-1@3 -min-quorum 0.5", `-crash: "worker-0-1" is not a node of the tree cloud:`},
		// A depth-2 tree's one level cannot run two different defaults.
		{"-topology cloud:tau=20/worker*4 -aggregator cloud=median", `the tree cloud:tau=20/worker*4 has one aggregating level`},
	} {
		err := run(strings.Fields(tc.args+" -model logistic -classes 3"), nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a refusal containing %q", tc.args, err, tc.want)
		}
	}
}

func TestRunResumeWithoutCheckpointDir(t *testing.T) {
	err := run([]string{"-transport", "memory", "-model", "logistic", "-resume"}, nil)
	if err == nil {
		t.Error("-resume without -checkpoint-dir accepted")
	}
}

func TestRunMemoryLogisticWithVerifyAndSave(t *testing.T) {
	dir := t.TempDir()
	resPath := filepath.Join(dir, "res.json")
	curvePath := filepath.Join(dir, "curve.csv")
	err := run([]string{
		"-transport", "memory",
		"-model", "logistic",
		"-classes", "3",
		"-verify",
		"-save-result", resPath,
		"-save-curve", curvePath,
	}, nil)
	if err != nil {
		t.Fatalf("memory run: %v", err)
	}
	for _, p := range []string{resPath, curvePath} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("artifact %s missing or empty (%v)", p, err)
		}
	}
}

// TestRunTopologyVerify: -verify hands the in-process simulation the tree
// the cluster ran, aggregation rules, attack plan and membership epochs
// included — a four-level -topology tree, a spec's robust agg=, the
// -aggregator defaults on the workload's own tree, every attack kind alone
// and under robust rules over TCP, and churn with re-tiering on the
// workload's tree and on a -topology tree, the plan naming leaves by the
// tree's IDs, and a part= tree sampling half of every edge's workers over
// memory and TCP — and the two engines land on the same final model; message
// drops and crashes, which the simulation does not model, are refused up
// front.
func TestRunTopologyVerify(t *testing.T) {
	for _, extra := range [][]string{
		{"-topology", "cloud:tau=20/region*2:tau=10/edge*2:tau=5/worker"},
		{"-topology", "cloud:tau=20/region*2:tau=10,agg=median/edge*2:tau=5/worker"},
		{"-aggregator", "median"},
		{"-aggregator", "median", "-attack-plan", "signflip:worker-0-1@1"},
		{"-aggregator", "edge=cosine,cloud=clip(0.5)"},
		{"-transport", "tcp", "-attack-plan", "signflip:worker-0-1@1"},
		{"-transport", "tcp", "-attack-plan", "signflip:worker-0-1@1", "-aggregator", "edge=cosine,cloud=clip"},
		{"-transport", "tcp", "-attack-plan", "scale:worker-0-1@2-12=10"},
		{"-transport", "tcp", "-attack-plan", "scale:worker-0-1@2-12=10", "-aggregator", "edge=cosine,cloud=clip"},
		{"-transport", "tcp", "-attack-plan", "noise:worker-1-0@1=0.5"},
		{"-transport", "tcp", "-attack-plan", "noise:worker-1-0@1=0.5", "-aggregator", "edge=cosine,cloud=clip"},
		{"-transport", "tcp", "-attack-plan", "replay:worker-0-1@2"},
		{"-transport", "tcp", "-attack-plan", "replay:worker-0-1@2", "-aggregator", "edge=cosine,cloud=clip"},
		{"-classes", "2", "-churn-plan", "join:worker-0-1@3,leave:worker-1-0@30", "-retier-every", "1"},
		{"-transport", "tcp", "-classes", "2", "-churn-plan", "join:worker-0-1@3,leave:worker-1-0@30", "-retier-every", "1", "-migration", "rescale"},
		{"-classes", "2", "-topology", "cloud:tau=20/edge*2:tau=10/worker*2",
			"-churn-plan", "join:worker-1@3,leave:worker-2@30", "-retier-every", "1"},
		{"-topology", "cloud:tau=4/edge*2:tau=2,part=0.5/worker*2"},
		{"-transport", "tcp", "-topology", "cloud:tau=4/edge*2:tau=2,part=0.5/worker*2"},
	} {
		args := append([]string{"-transport", "memory", "-model", "logistic", "-verify"}, extra...)
		cmd := exec.Command(os.Args[0], "-test.run", "TestHelperProcess")
		cmd.Env = append(os.Environ(), "FLCLUSTER_HELPER=1", "FLCLUSTER_ARGS="+strings.Join(args, " "))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("flcluster %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		if !strings.Contains(string(out), "verified: distributed final accuracy") {
			t.Errorf("flcluster %s did not print the verification line:\n%s", strings.Join(extra, " "), out)
		}
	}
	for _, extra := range [][]string{
		{"-drop-rate", "0.02"},
		{"-crash", "worker-0-1@40"},
	} {
		err := run(append([]string{"-transport", "memory", "-model", "logistic", "-verify"}, extra...), nil)
		if err == nil || !strings.Contains(err.Error(), "-verify requires a fault-free run:") {
			t.Errorf("-verify %s = %v, want the fault-free-run refusal", strings.Join(extra, " "), err)
		}
	}
}

// TestRunResumeVerifiesUnderAttack: a resumed run's attack report counts
// only what followed the resume — here nothing, resuming a finished run's
// snapshots — so -verify holds it to the simulation's model, not its report.
func TestRunResumeVerifiesUnderAttack(t *testing.T) {
	args := []string{"-transport", "memory", "-model", "logistic", "-classes", "3",
		"-checkpoint-dir", t.TempDir(), "-attack-plan", "signflip:worker-0-1@1", "-aggregator", "median"}
	if err := run(args, nil); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-resume", "-verify"), nil); err != nil {
		t.Errorf("-resume -verify under an attack plan: %v", err)
	}
}

// TestCompareRuns: -verify holds the final accuracy exactly and the final
// loss to rounding, so two different models that happen to score the same
// accuracy do not pass as one; a NaN loss matches only a NaN, and an
// infinite one only the same infinity.
func TestCompareRuns(t *testing.T) {
	for _, tc := range []struct {
		name            string
		acc, loss       float64
		simAcc, simLoss float64
		want            bool
	}{
		{"identical", 0.9875, 0.1376, 0.9875, 0.1376, true},
		{"loss-to-rounding", 0.9875, 0.1376 + 1e-14, 0.9875, 0.1376, true},
		{"same-accuracy-other-model", 0.9875, 0.2855, 0.9875, 0.1376, false},
		{"loss-off-by-more-than-rounding", 0.9875, 0.1376 + 1e-9, 0.9875, 0.1376, false},
		{"other-accuracy", 0.95, 0.1376, 0.9875, 0.1376, false},
		{"nan-vs-finite", 0.2125, math.NaN(), 0.2125, 0.1376, false},
		{"finite-vs-nan", 0.2125, 0.1376, 0.2125, math.NaN(), false},
		{"nan-vs-nan", 0.2125, math.NaN(), 0.2125, math.NaN(), true},
		{"inf-vs-inf", 0.2125, math.Inf(1), 0.2125, math.Inf(1), true},
		{"inf-vs-minus-inf", 0.2125, math.Inf(1), 0.2125, math.Inf(-1), false},
		{"finite-vs-inf", 0.2125, 0.1376, 0.2125, math.Inf(1), false},
		{"inf-vs-finite", 0.2125, math.Inf(1), 0.2125, 0.1376, false},
	} {
		err := compareRuns(&hieradmo.Result{FinalAcc: tc.acc, FinalLoss: tc.loss},
			&hieradmo.Result{FinalAcc: tc.simAcc, FinalLoss: tc.simLoss})
		if (err == nil) != tc.want {
			t.Errorf("%s: compareRuns = %v, want match %v", tc.name, err, tc.want)
		}
	}
	// The same model under another membership trajectory is another run.
	churned := &hieradmo.Result{FinalAcc: 0.9875, FinalLoss: 0.1376,
		Membership: &fl.MembershipReport{Summary: membership.Summary{Joins: 1, Epochs: 2, InitialWorkers: 3, FinalWorkers: 4}, MigrationPolicy: "zero"}}
	static := &hieradmo.Result{FinalAcc: 0.9875, FinalLoss: 0.1376}
	if compareRuns(churned, static) == nil || compareRuns(static, churned) == nil {
		t.Error("compareRuns matched a churn run against a static one")
	}
	same := *churned.Membership
	if err := compareRuns(churned, &hieradmo.Result{FinalAcc: 0.9875, FinalLoss: 0.1376, Membership: &same}); err != nil {
		t.Errorf("compareRuns on equal membership reports = %v", err)
	}
	// So is the same model under another attack report: other verdicts at a
	// tier, or none at all.
	report := func(rejectedAtEdges int) *fl.AttackReport {
		return &fl.AttackReport{Injected: map[string]int{"signflip": 12},
			RejectedByTier: map[int]int{1: rejectedAtEdges}, TierAggregators: []string{"cosine(0)", "cosine(0)"}}
	}
	attacked := &hieradmo.Result{FinalAcc: 0.9875, FinalLoss: 0.1376, AttackReport: report(5)}
	for name, other := range map[string]*fl.AttackReport{"other-verdicts": report(4), "no-report": nil} {
		if compareRuns(attacked, &hieradmo.Result{FinalAcc: 0.9875, FinalLoss: 0.1376, AttackReport: other}) == nil {
			t.Errorf("%s: compareRuns matched differing attack reports", name)
		}
	}
	if err := compareRuns(attacked, &hieradmo.Result{FinalAcc: 0.9875, FinalLoss: 0.1376, AttackReport: report(5)}); err != nil {
		t.Errorf("compareRuns on equal attack reports = %v", err)
	}
	// And so is the same final model reached along another curve: every
	// distributed point must be the simulation's at its iteration, the
	// accuracy exactly and the loss to rounding.
	curve := func(points ...fl.Point) *hieradmo.Result {
		return &hieradmo.Result{FinalAcc: 0.9875, FinalLoss: 0.1376, Curve: points}
	}
	sim := curve(fl.Point{Iter: 40, TestAcc: 0.5, TrainLoss: 1}, fl.Point{Iter: 80, TestAcc: 0.9875, TrainLoss: 0.1376})
	for _, tc := range []struct {
		name string
		res  *hieradmo.Result
		want bool
	}{
		{"same-curve", curve(sim.Curve...), true},
		{"loss-to-rounding", curve(fl.Point{Iter: 40, TestAcc: 0.5, TrainLoss: 1 + 1e-14}, sim.Curve[1]), true},
		{"other-accuracy", curve(fl.Point{Iter: 40, TestAcc: 0.625, TrainLoss: 1}, sim.Curve[1]), false},
		{"other-loss", curve(fl.Point{Iter: 40, TestAcc: 0.5, TrainLoss: 1.5}, sim.Curve[1]), false},
		{"point-the-simulation-lacks", curve(fl.Point{Iter: 20, TestAcc: 0.25, TrainLoss: 2}, sim.Curve[0], sim.Curve[1]), false},
	} {
		if err := compareRuns(tc.res, sim); (err == nil) != tc.want {
			t.Errorf("%s: compareRuns = %v, want match %v", tc.name, err, tc.want)
		}
	}
}

// TestHelperProcess is the re-exec target for the signal tests. Mode "1"
// runs flcluster exactly as the installed binary would (real signal handling
// and exit codes); mode "hang" installs the signal handler, announces
// readiness, and blocks forever so the double-signal abort path can be
// exercised without racing a live training run.
func TestHelperProcess(t *testing.T) {
	switch os.Getenv("FLCLUSTER_HELPER") {
	case "1":
		args := strings.Split(os.Getenv("FLCLUSTER_ARGS"), " ")
		os.Exit(mainExit(args, installInterrupt("flcluster")))
	case "hang":
		installInterrupt("flcluster")
		fmt.Println("ready")
		select {}
	default:
		t.Skip("helper process only")
	}
}

// TestSigtermCheckpointsAndResumes sends a real SIGTERM to a live flcluster
// process mid-run and asserts the graceful-shutdown contract: exit code 3,
// resumable snapshots on disk, and a -resume rerun that completes and still
// verifies bit-identical against the in-process simulation.
func TestSigtermCheckpointsAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("process signal test skipped in -short mode")
	}
	dir := t.TempDir()
	args := []string{
		"-transport", "memory",
		"-model", "logistic",
		"-classes", "3",
		"-checkpoint-dir", dir,
	}
	// Stretch the monitored run with injected per-message delays so the
	// signal reliably lands mid-run even on a loaded machine; delays change
	// timing only, never results, so the resumed run still verifies.
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperProcess")
	cmd.Env = append(os.Environ(),
		"FLCLUSTER_HELPER=1",
		"FLCLUSTER_ARGS="+strings.Join(append(args, "-max-delay", "10ms"), " "))
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Interrupt as soon as the first snapshot lands.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if matches, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(matches) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never wrote a snapshot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if code := cmd.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("exit code = %d (err %v), want 3 for a graceful interrupt", code, err)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(matches) == 0 {
		t.Fatal("no snapshots left behind after graceful shutdown")
	}

	// The same command line plus -resume finishes the run, and -verify proves
	// the stitched-together result is bit-identical to the simulation.
	if err := run(append(args, "-resume", "-verify"), nil); err != nil {
		t.Fatalf("resume after SIGTERM: %v", err)
	}
}

// TestDoubleSignalAborts asserts the escalation path: the second
// SIGINT/SIGTERM abandons the graceful shutdown and exits with code 4.
func TestDoubleSignalAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("process signal test skipped in -short mode")
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperProcess")
	cmd.Env = append(os.Environ(), "FLCLUSTER_HELPER=hang")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the helper has installed its handler.
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "ready" {
			break
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if code := cmd.ProcessState.ExitCode(); code != 4 {
		t.Fatalf("exit code = %d, want 4 for an aborted shutdown", code)
	}
}
