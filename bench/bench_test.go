package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestBenchmarkFileAgrees fails when BENCHMARK.json and the program disagree
// on any workload or metric: name, order, unit, direction or bound.
func TestBenchmarkFileAgrees(t *testing.T) {
	spec := readBenchmarkFile(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, c := range []struct {
		kind      string
		file, own []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.file) != len(c.own) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(c.file), c.kind, len(c.own))
		}
		for i := range c.own {
			if c.file[i] != c.own[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", c.kind, i, c.file[i], c.own[i])
			}
		}
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d outside 1..60", spec.RunSeconds)
	}
}

func checkValue(t *testing.T, where, name string, v float64, unit, wantUnit string, nonZero bool) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) || (nonZero && v == 0) {
		t.Errorf("%s: %s = %v", where, name, v)
	}
	if unit != wantUnit {
		t.Errorf("%s: %s has unit %q, want %q", where, name, unit, wantUnit)
	}
}

// TestQuickSuite runs the whole suite at smoke-test sizes and checks that
// every workload and metric of BENCHMARK.json appears in the output exactly
// once, finite and with its unit, beside one trace file per workload.
func TestQuickSuite(t *testing.T) {
	spec := readBenchmarkFile(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(data)), "\"claim\": null\n}") {
		t.Errorf("result file does not end with \"claim\": null")
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Sets) != 1 || file.TotalWallS <= 0 {
		t.Fatalf("got %d sets, total wall %v", len(file.Sets), file.TotalWallS)
	}
	set := file.Sets[0]
	if len(set.Workloads) != len(spec.Workloads) {
		t.Fatalf("result has %d workloads, BENCHMARK.json %d", len(set.Workloads), len(spec.Workloads))
	}
	for i, want := range spec.Workloads {
		row := set.Workloads[i]
		if row.Name != want.Name {
			t.Fatalf("workload %d is %q, want %q", i, row.Name, want.Name)
		}
		if row.Failed != 0 || row.Attempted == 0 || row.Reps == 0 {
			t.Errorf("%s: %d of %d reps failed, %d timed", row.Name, row.Failed, row.Attempted, row.Reps)
		}
		if len(row.EndToEnd) != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", row.Name, len(row.EndToEnd), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			sum, ok := row.EndToEnd[m.Name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s missing", row.Name, m.Name)
				continue
			}
			checkValue(t, row.Name, m.Name, sum.Median, sum.Unit, m.Unit, true)
		}
		for _, m := range spec.PerLayer {
			v, inRow := row.PerLayer[m.Name]
			p, inProbes := set.Probes[m.Name]
			switch {
			case inRow == inProbes:
				t.Errorf("%s: per-layer metric %s in row %v, in probes %v; want exactly one", row.Name, m.Name, inRow, inProbes)
			case inRow:
				checkValue(t, row.Name, m.Name, v.Value, v.Unit, m.Unit, false)
			default:
				checkValue(t, "probes", m.Name, p.Value, p.Unit, m.Unit, true)
			}
		}
		if n := len(row.PerLayer) + len(set.Probes); n != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics with the probes, want %d", row.Name, n, len(spec.PerLayer))
		}
		checkTrace(t, filepath.Join(dir, "trace_"+row.Name+".jsonl"), row.Name)
	}
	left, err := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("checkpoint directories left behind: %v %v", left, err)
	}
}

// checkTrace checks the span tree of one trace file: the structural spans
// under the workload, then only call spans whose parent is the run.
func checkTrace(t *testing.T, path, name string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	var records []traceRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec traceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		t.Error(err)
	}
	want := []string{"workload:" + name, "setup.build_config", "setup.warmup", "rep", "run"}
	if len(records) <= len(want) {
		t.Errorf("%s: %d spans, want call spans after the %d structural ones", path, len(records), len(want))
		return
	}
	for i, n := range want {
		if records[i].Name != n {
			t.Errorf("%s: span %d is %q, want %q", path, i, records[i].Name, n)
		}
	}
	calls := make(map[string]int)
	for _, rec := range records[len(want):] {
		calls[rec.Name]++
		if rec.Parent != idRun || rec.EndUs < rec.StartUs {
			t.Errorf("%s: span %d (%s) has parent %d, [%v, %v]", path, rec.ID, rec.Name, rec.Parent, rec.StartUs, rec.EndUs)
			return
		}
	}
	if calls["model.lossgrad"] == 0 || calls["model.predict"] == 0 {
		t.Errorf("%s: call spans %v, want model spans", path, calls)
	}
	if (name != "sim_cnn") != (calls["transport.send"] > 0 && calls["transport.recv"] > 0) {
		t.Errorf("%s: call spans %v, want transport spans on cluster workloads only", path, calls)
	}
}

// TestDriverMode checks the one-line result the benchmark contract asks for,
// with tracing off and on.
func TestDriverMode(t *testing.T) {
	for trace, table := range [][]metric{endToEnd, perLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "sim_cnn", "--seed", "7", "--seconds", "0", "--trace", string(rune('0' + trace)),
			"-quick", "-out", filepath.Join(t.TempDir(), "result.json")}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %d: exit code %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var result map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v", trace, err)
		}
		if len(result) != 4 || string(result["correct"]) != "true" || string(result["failed"]) != "0" || string(result["attempted"]) == "0" {
			t.Errorf("trace %d: result %s", trace, lines[len(lines)-1])
		}
		var metrics map[string]value
		if err := json.Unmarshal(result["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(table) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(metrics), len(table))
		}
		for _, m := range table {
			v, ok := metrics[m.Name]
			if !ok {
				t.Errorf("trace %d: metric %s missing", trace, m.Name)
				continue
			}
			checkValue(t, "driver", m.Name, v.Value, v.Unit, m.Unit, trace == 0)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit code %d, stdout %q; want a failure without a result", code, stdout.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the rule the acceptance check applies.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6}, // two points extrapolate: quantiles([1, 5], n=4) == [0, 3, 6]
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCompareVerdicts(t *testing.T) {
	sum := func(med, spread float64) summary {
		return summary{Median: med, Q1: med * (1 - spread/2), Q3: med * (1 + spread/2), N: 8}
	}
	wall := metric{"wall_s", "s", lower, 0.10}
	rate := metric{"samples_per_s", "1/s", higher, 0.10}
	for _, c := range []struct {
		m        metric
		old, cur summary
		want     string
	}{
		{wall, sum(1, 0.02), sum(1.05, 0.02), verdictOK},
		{wall, sum(1, 0.02), sum(1.2, 0.02), verdictRegression},
		{wall, sum(1, 0.02), sum(0.5, 0.02), verdictOK},
		{wall, sum(1, 0.3), sum(1.2, 0.02), verdictUnresolved},
		{rate, sum(100, 0.02), sum(80, 0.02), verdictRegression},
		{rate, sum(100, 0.02), sum(130, 0.02), verdictOK},
	} {
		if _, got := judge(c.m, c.old, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.m.Name, c.old.Median, c.cur.Median, got, c.want)
		}
	}

	row := func(wallS float64) workloadResult {
		r := workloadResult{Name: "w", Attempted: 1, EndToEnd: make(map[string]summary)}
		for _, m := range endToEnd {
			r.EndToEnd[m.Name] = sum(1, 0.01)
		}
		r.EndToEnd["wall_s"] = sum(wallS, 0.01)
		return r
	}
	old := &suiteResult{Workloads: []workloadResult{row(1)}}
	var out bytes.Buffer
	if compareSets(old, &suiteResult{Workloads: []workloadResult{row(1.03)}}, &out) {
		t.Errorf("3%% slower flagged as a regression:\n%s", out.String())
	}
	if !compareSets(old, &suiteResult{Workloads: []workloadResult{row(1.3)}}, &out) {
		t.Errorf("30%% slower not flagged as a regression")
	}
	if !compareSets(old, &suiteResult{}, &out) {
		t.Errorf("a missing workload not flagged")
	}
}
