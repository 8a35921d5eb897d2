package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
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

// TestRunTopologyVerify: -verify hands the in-process simulation the
// -topology tree the cluster ran, and on a four-level tree the two engines
// land on the same final accuracy; a spec with a robust level is refused up
// front with the undefended-run refusal.
func TestRunTopologyVerify(t *testing.T) {
	args := []string{
		"-transport", "memory", "-model", "logistic", "-verify",
		"-topology", "cloud:tau=20/region*2:tau=10/edge*2:tau=5/worker",
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperProcess")
	cmd.Env = append(os.Environ(), "FLCLUSTER_HELPER=1", "FLCLUSTER_ARGS="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("flcluster %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	if !strings.Contains(string(out), "verified: distributed final accuracy") {
		t.Errorf("-topology -verify did not print the verification line:\n%s", out)
	}
	err = run([]string{
		"-transport", "memory", "-model", "logistic", "-verify",
		"-topology", "cloud:tau=20/region*2:tau=10,agg=median/edge*2:tau=5/worker",
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "undefended honest run") {
		t.Errorf("-verify with agg=median in the spec = %v, want the undefended-run refusal", err)
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
