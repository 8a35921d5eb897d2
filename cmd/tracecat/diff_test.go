package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// diffBase is a five-event trace the diff tests edit one line of.
var diffBase = []string{
	`{"seq":1,"ev":"run_start","alg":"HierAdMo","T":8}`,
	`{"seq":2,"ev":"worker_train","t":1,"edge":0,"worker":0,"loss":0.5}`,
	`{"seq":3,"ev":"worker_train","t":1,"edge":0,"worker":1,"loss":0.25}`,
	`{"seq":4,"ev":"edge_aggregate","t":4,"edge":0,"gamma":0.25,"cos":0.5}`,
	`{"seq":5,"ev":"run_end","final_acc":0.9}`,
}

func writeLines(t *testing.T, name string, lines []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	body := strings.Join(lines, "\n")
	if len(lines) > 0 {
		body += "\n"
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// edited returns diffBase with line i replaced.
func edited(i int, line string) []string {
	lines := append([]string(nil), diffBase...)
	lines[i] = line
	return lines
}

func runDiff(t *testing.T, a, b []string, flags ...string) (string, error) {
	t.Helper()
	args := append(flags, writeLines(t, "a.trace", a), writeLines(t, "b.trace", b))
	var out strings.Builder
	err := run(append([]string{"-diff"}, args...), &out)
	if err != nil && !errors.Is(err, errDiverged) {
		t.Fatal(err)
	}
	return out.String(), err
}

func TestDiffIdenticalTraces(t *testing.T) {
	// Blank lines do not count as events.
	withBlank := append([]string{""}, diffBase...)
	out, err := runDiff(t, diffBase, withBlank)
	if err != nil || out != "" {
		t.Errorf("identical traces: err %v, output:\n%s", err, out)
	}
}

func TestDiffAtFirstEvent(t *testing.T) {
	out, err := runDiff(t, diffBase, edited(0, `{"seq":1,"ev":"run_start","alg":"HierAdMo-R","T":8}`))
	if !errors.Is(err, errDiverged) {
		t.Fatalf("err = %v, want errDiverged", err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 || !strings.Contains(lines[0], "event 1 (0 identical") ||
		!strings.HasPrefix(lines[1], "- ") || !strings.HasPrefix(lines[2], "+ ") ||
		strings.TrimSpace(lines[3]) != "alg: HierAdMo → HierAdMo-R" {
		t.Errorf("report:\n%s", out)
	}
}

func TestDiffMidStreamWithContextAndFieldDelta(t *testing.T) {
	b := edited(3, `{"seq":4,"ev":"edge_aggregate","t":4,"edge":0,"gamma":0.5,"tier":1}`)
	out, err := runDiff(t, diffBase, b, "-context", "2")
	if !errors.Is(err, errDiverged) {
		t.Fatalf("err = %v, want errDiverged", err)
	}
	want := []string{
		"traces diverge at event 4 (3 identical before it)",
		"worker=0", // context: events 2 and 3, not event 1
		"worker=1",
		"- ",
		"+ ",
		"gamma: 0.25 → 0.5",
		"missing: cos=0.5",
		"extra: tier=1",
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(want) {
		t.Fatalf("report has %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, w := range want {
		if !strings.Contains(lines[i], w) {
			t.Errorf("line %d = %q, want it to contain %q", i+1, lines[i], w)
		}
	}
	if strings.Contains(out, "run_start") {
		t.Errorf("-context 2 printed a third event before the divergence:\n%s", out)
	}
}

func TestDiffSeqAndEventName(t *testing.T) {
	out, _ := runDiff(t, diffBase, edited(4, `{"seq":6,"ev":"run_abort","final_acc":0.9}`))
	if !strings.Contains(out, "seq: 5 → 6") || !strings.Contains(out, "ev: run_end → run_abort") {
		t.Errorf("report:\n%s", out)
	}
	// Same fields, another order: still a divergence, and said so.
	out, _ = runDiff(t, diffBase, edited(1, `{"seq":2,"ev":"worker_train","edge":0,"t":1,"worker":0,"loss":0.5}`))
	if !strings.Contains(out, "same fields in another order") {
		t.Errorf("reordered fields:\n%s", out)
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	short := diffBase[:3]
	for _, tc := range []struct {
		name string
		a, b []string
		end  string
	}{
		{"b ends first", diffBase, short, "+ "},
		{"a ends first", short, diffBase, "- "},
		{"one trace empty", nil, diffBase, "- "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runDiff(t, tc.a, tc.b)
			if !errors.Is(err, errDiverged) {
				t.Fatalf("err = %v, want errDiverged", err)
			}
			n := min(len(tc.a), len(tc.b))
			if !strings.Contains(out, fmt.Sprintf("at event %d ", n+1)) {
				t.Errorf("divergence not placed at event %d:\n%s", n+1, out)
			}
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, tc.end) && !strings.HasSuffix(line, "(end of trace)") {
					t.Errorf("the shorter side should read (end of trace): %q", line)
				}
			}
		})
	}
}

func TestDiffRejectsBadUsage(t *testing.T) {
	path := writeLines(t, "a.trace", diffBase)
	var out strings.Builder
	for _, args := range [][]string{
		{"-diff", path},
		{"-diff", "-count", path, path},
		{"-diff", "-check", path, path},
		{"-diff", "-ev", "run_end", path, path},
		{"-diff", "-node", "edge-0", "-count", path, path},
		{"-diff", "-context", "-1", path, path},
	} {
		if err := run(args, &out); err == nil || errors.Is(err, errDiverged) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
	}
	bad := writeLines(t, "bad.trace", edited(2, `{"seq":3}`))
	if err := run([]string{"-diff", path, bad}, &out); err == nil || errors.Is(err, errDiverged) ||
		!strings.Contains(err.Error(), "event 3") {
		t.Errorf("malformed line: err = %v, want a parse error naming event 3", err)
	}
}

// clusterA and clusterB are one cluster run's events in two arrival orders:
// the nodes' streams are the same, their interleaving and so every seq is not.
var (
	clusterA = []string{
		`{"seq":1,"ev":"round","node":"edge-0","t":1,"loss":0.5}`,
		`{"seq":2,"ev":"round","node":"worker-0-0","t":1,"loss":0.75}`,
		`{"seq":3,"ev":"round","node":"worker-0-1","t":1,"loss":0.25}`,
		`{"seq":4,"ev":"tier_aggregate","node":"edge-0","t":2,"gamma":0.5}`,
		`{"seq":5,"ev":"round","node":"worker-0-0","t":2,"loss":0.5}`,
		`{"seq":6,"ev":"run_end","final_acc":0.9}`,
	}
	clusterB = []string{
		`{"seq":1,"ev":"round","node":"worker-0-1","t":1,"loss":0.25}`,
		`{"seq":2,"ev":"round","node":"worker-0-0","t":1,"loss":0.75}`,
		`{"seq":3,"ev":"round","node":"worker-0-0","t":2,"loss":0.5}`,
		`{"seq":4,"ev":"round","node":"edge-0","t":1,"loss":0.5}`,
		`{"seq":5,"ev":"tier_aggregate","node":"edge-0","t":2,"gamma":0.5}`,
		`{"seq":6,"ev":"run_end","final_acc":0.9}`,
	}
)

func TestDiffNodeIgnoresInterleaving(t *testing.T) {
	if _, err := runDiff(t, clusterA, clusterB); !errors.Is(err, errDiverged) {
		t.Fatalf("whole traces in another order: err = %v, want errDiverged", err)
	}
	for _, node := range []string{"edge-0", "worker-0-0", "worker-0-1", "no-such-node"} {
		if out, err := runDiff(t, clusterA, clusterB, "-node", node); err != nil || out != "" {
			t.Errorf("-node %s: err %v, output:\n%s", node, err, out)
		}
	}
}

func TestDiffNodeReportsChangedField(t *testing.T) {
	b := append([]string(nil), clusterB...)
	b[4] = `{"seq":5,"ev":"tier_aggregate","node":"edge-0","t":2,"gamma":0.25}`
	out, err := runDiff(t, clusterA, b, "-node", "edge-0")
	if !errors.Is(err, errDiverged) {
		t.Fatalf("err = %v, want errDiverged", err)
	}
	want := []string{
		"traces diverge at event 2 (1 identical before it)",
		"loss=0.5", // context: edge-0's first event
		"tier_aggregate       node=edge-0 t=2 gamma=0.5",
		"tier_aggregate       node=edge-0 t=2 gamma=0.25",
		"gamma: 0.5 → 0.25",
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(want) {
		t.Fatalf("report has %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, w := range want {
		if !strings.Contains(lines[i], w) {
			t.Errorf("line %d = %q, want it to contain %q", i+1, lines[i], w)
		}
	}
	if strings.Contains(out, "seq:") || strings.Contains(out, "worker") {
		t.Errorf("-node edge-0 reported another node or a seq delta:\n%s", out)
	}
	// The other nodes' events did not change.
	if _, err := runDiff(t, clusterA, b, "-node", "worker-0-0"); err != nil {
		t.Errorf("-node worker-0-0: err = %v, want identical", err)
	}
}
