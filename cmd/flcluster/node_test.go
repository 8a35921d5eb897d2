package main

import (
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeJSON writes v as JSON into dir/name and returns the path.
func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestNodeFlagValidation: every -node, -registry and -join misuse, and every
// in-process flag given with -node, is refused before the node's socket
// opens. The registry points its IDs at a port this test holds, so a run
// that got as far as listening fails with a duplicate-node error instead of
// the refusal a row expects — which is what the one row that passes every
// check, a -join on a -topology tree's leaf, expects.
func TestNodeFlagValidation(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	dir := t.TempDir()
	reg := writeJSON(t, dir, "reg.json", map[string]string{
		"cloud":      held.Addr().String(),
		"worker-0-1": held.Addr().String(),
		"worker-1-0": held.Addr().String(),
		"worker-1":   held.Addr().String(),
	})
	const spec = " -topology cloud:tau=20/edge*2:tau=10/worker*2"
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o600); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args string
		want string
	}{
		{"node without registry", "-node cloud", "-node needs -registry"},
		{"missing registry file", "-node cloud -registry " + filepath.Join(dir, "missing.json"), "read registry"},
		{"malformed registry", "-node cloud -registry " + bad, "parse registry"},
		{"registry without node", "-registry " + reg, "-registry needs -node"},
		{"node missing from registry", "-node ghost -registry " + reg, `"ghost" missing from registry`},
		{"join without node", "-join -churn-plan join:worker-0-1@3", "-join needs -node"},
		{"join on a non-worker", "-node cloud -registry " + reg + " -join -churn-plan join:worker-0-1@3", "worker-ℓ-i"},
		{"join without churn plan", "-node worker-0-1 -registry " + reg + " -join", "-churn-plan"},
		{"join unscheduled", "-node worker-1-0 -registry " + reg + " -join -churn-plan join:worker-0-1@3", "no late join"},
		// A plan names a spec tree's leaves by the tree's own IDs.
		{"join on a spec tree", "-node worker-1 -registry " + reg + spec + " -join -churn-plan join:worker-1@3", `"worker-1" bound at`},
		{"join unscheduled on a spec tree", "-node worker-2 -registry " + reg + spec + " -join -churn-plan join:worker-1@3", "no late join"},
		{"join on a spec tree's edge", "-node edge-0 -registry " + reg + spec + " -join -churn-plan join:worker-1@3", "training leaf"},
		{"derived-tree name on a spec tree", "-node worker-1 -registry " + reg + spec + " -join -churn-plan join:worker-0-1@3", `"worker-0-1", not a training leaf of the tree cloud:`},
		{"bad migration policy", "-node cloud -registry " + reg + " -migration teleport", "unknown migration policy"},
		{"transport", "-node cloud -registry " + reg + " -transport tcp", "-transport"},
		{"drop rate", "-node cloud -registry " + reg + " -drop-rate 0.1", "-drop-rate"},
		{"max delay", "-node cloud -registry " + reg + " -max-delay 1ms", "-max-delay"},
		{"crash", "-node cloud -registry " + reg + " -crash worker-0-1@4", "-crash"},
		{"restart after", "-node cloud -registry " + reg + " -restart-after worker-0-1@2", "-restart-after"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(strings.Fields(c.args+" -model logistic"), nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: err = %v, want a refusal containing %q", c.args, err, c.want)
			}
		})
	}
}

// TestNodeOutsideTheTree: a registry may name IDs the run's tree does not
// have; such a node fails at once, naming the ID and the tree, instead of
// waiting out a receive timeout.
func TestNodeOutsideTheTree(t *testing.T) {
	reg := writeJSON(t, t.TempDir(), "reg.json", map[string]string{"edge-9": "127.0.0.1:0"})
	err := run([]string{"-node", "edge-9", "-registry", reg, "-model", "logistic"}, nil)
	if err == nil || !strings.Contains(err.Error(), `"edge-9" is not a node of the tree cloud:`) {
		t.Errorf("err = %v, want a refusal naming edge-9 and the tree", err)
	}
}

// writeRegistry reserves seven distinct loopback ports (1 cloud, 2 edges, 4
// workers), writes the node-ID → host:port registry JSON into dir, and
// returns its path.
func writeRegistry(t *testing.T, dir string) string {
	t.Helper()
	ids := []string{"cloud", "edge-0", "edge-1",
		"worker-0-0", "worker-0-1", "worker-1-0", "worker-1-1"}
	registry := make(map[string]string, len(ids))
	var listeners []net.Listener
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, ln)
		registry[id] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return writeJSON(t, dir, "reg.json", registry)
}

// spawnNode re-execs the test binary as one flcluster -node process.
func spawnNode(id, common string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperProcess")
	cmd.Env = append(os.Environ(),
		"FLCLUSTER_HELPER=1",
		"FLCLUSTER_ARGS=-node "+id+" "+common)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	return cmd
}

// TestMultiProcessDeployment spawns seven REAL OS processes (1 cloud, 2
// edges, 4 workers) that talk over loopback TCP through a shared registry
// file — the closest the test suite gets to the paper's physical testbed.
func TestMultiProcessDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dir := t.TempDir()
	common := "-registry " + writeRegistry(t, dir) + " -model logistic -classes 3"

	var others []*exec.Cmd
	for _, id := range []string{"worker-0-0", "worker-0-1", "worker-1-0", "worker-1-1", "edge-0", "edge-1"} {
		cmd := spawnNode(id, common)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		others = append(others, cmd)
	}
	if err := spawnNode("cloud", common).Run(); err != nil {
		t.Fatalf("cloud process failed: %v", err)
	}
	for i, cmd := range others {
		if err := cmd.Wait(); err != nil {
			t.Errorf("node %d failed: %v", i, err)
		}
	}
}

// TestMultiProcessKillRestart is the crash-recovery acceptance test at the
// process level: a full TCP deployment runs with checkpointing, one worker
// process is SIGKILLed mid-run (no chance to flush anything), and a fresh
// process with the same arguments plus -resume reloads its snapshot and
// rejoins. The deployment runs in quorum mode so the cohort rides out the
// outage, and the whole run — cloud included — must still finish cleanly.
func TestMultiProcessKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.Mkdir(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	common := strings.Join([]string{
		"-registry", writeRegistry(t, dir),
		"-model", "logistic",
		"-classes", "3",
		"-min-quorum", "0.4",
		"-straggler-deadline", "300ms",
		"-recv-timeout", "10s",
		"-checkpoint-dir", ckptDir,
	}, " ")

	var others []*exec.Cmd
	for _, id := range []string{"worker-0-0", "worker-1-0", "worker-1-1", "edge-0", "edge-1"} {
		cmd := spawnNode(id, common)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		others = append(others, cmd)
	}
	victim := spawnNode("worker-0-1", common)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	cloud := spawnNode("cloud", common)
	if err := cloud.Start(); err != nil {
		t.Fatal(err)
	}

	// SIGKILL the victim as soon as it has written its first snapshot.
	pattern := filepath.Join(ckptDir, "worker-0-1-*.ckpt")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if matches, _ := filepath.Glob(pattern); len(matches) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never wrote a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := victim.Wait(); err == nil {
		t.Fatal("SIGKILLed worker exited cleanly")
	}

	// Relaunch with the same arguments plus -resume: the new process reloads
	// the snapshot the dead one left behind and rejoins the protocol.
	respawned := spawnNode("worker-0-1", common+" -resume")
	if err := respawned.Start(); err != nil {
		t.Fatal(err)
	}

	if err := cloud.Wait(); err != nil {
		t.Fatalf("cloud process failed: %v", err)
	}
	if err := respawned.Wait(); err != nil {
		t.Errorf("respawned worker failed: %v", err)
	}
	for i, cmd := range others {
		if err := cmd.Wait(); err != nil {
			t.Errorf("node %d failed: %v", i, err)
		}
	}
}
