package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleBench is a single-core run: Go omits the -N GOMAXPROCS suffix when
// GOMAXPROCS == 1, and -count=2 repeats each benchmark line.
const sampleBench = `goos: linux
goarch: amd64
pkg: hieradmo/internal/core
cpu: Test CPU @ 2.10GHz
BenchmarkHierAdMoCNN/workers=1         	       3	46504898 ns/op	 1266525 B/op	     405 allocs/op
BenchmarkHierAdMoCNN/workers=8         	       3	45690611 ns/op	 1271832 B/op	     493 allocs/op
BenchmarkHierAdMoCNN/workers=1         	       3	48000000 ns/op	 1266525 B/op	     410 allocs/op
BenchmarkHierAdMoCNN/workers=8         	       3	44000000 ns/op	 1280000 B/op	     493 allocs/op
BenchmarkEdgeCosine                    	   16588	     72171 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	hieradmo/internal/core	5.123s
`

// sampleMulticore is the same family benchmarked on an 8-core host: names
// carry the -8 suffix and the pool delivers a real speedup.
const sampleMulticore = `goos: linux
goarch: amd64
pkg: hieradmo/internal/core
BenchmarkHierAdMoCNN/workers=1-8       	       3	46504898 ns/op	 1266525 B/op	     405 allocs/op
BenchmarkHierAdMoCNN/workers=8-8       	       6	 8000000 ns/op	 1271832 B/op	     493 allocs/op
PASS
`

func parseSample(t *testing.T, text string) *report {
	t.Helper()
	rep, err := parse(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func defaultTol() tolerances { return tolerances{bytes: 0.10, allocs: 0.10} }

func TestParseBenchOutput(t *testing.T) {
	rep := parseSample(t, sampleBench)
	if rep.GoOS != "linux" || rep.Package != "hieradmo/internal/core" {
		t.Errorf("headers = %q/%q", rep.GoOS, rep.Package)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d merged benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	if b.Name != "HierAdMoCNN/workers=1" || b.Workers != 1 || b.Procs != 1 {
		t.Errorf("first record = %+v", b)
	}
	ec := rep.Benchmarks[2]
	if ec.Name != "EdgeCosine" || ec.Workers != 0 || ec.NsPerOp != 72171 || ec.AllocsOp != 0 {
		t.Errorf("EdgeCosine record = %+v", ec)
	}
}

// TestParseSkipsThroughputColumn: a benchmark that calls SetBytes prints an
// MB/s column between ns/op and B/op; its byte and alloc counts must still be
// read, or the gate on them is blind.
func TestParseSkipsThroughputColumn(t *testing.T) {
	rep := parseSample(t, "BenchmarkRegistrySave/leaf-2 \t 200\t 806710 ns/op\t 610.08 MB/s\t 168 B/op\t 3 allocs/op\n")
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(rep.Benchmarks))
	}
	if b := rep.Benchmarks[0]; b.Name != "RegistrySave/leaf" || b.NsPerOp != 806710 || b.BPerOp != 168 || b.AllocsOp != 3 {
		t.Errorf("record = %+v, want 806710 ns/op, 168 B/op, 3 allocs/op", b)
	}
}

// TestParseReadsColumnsByUnit: ReportMetric prints its columns between ns/op
// and B/op too, under any unit. They are recorded by unit, the byte and alloc
// counts behind them are still read, and on a merge they follow the repetition
// whose time is kept.
func TestParseReadsColumnsByUnit(t *testing.T) {
	rep := parseSample(t, ""+
		"BenchmarkGEMMBias/conv2_16x49x72c9-2 \t 20000\t 7629 ns/op\t 14.80 GFLOP/s\t 16 B/op\t 2 allocs/op\n"+
		"BenchmarkGEMMBias/conv2_16x49x72c9-2 \t 20000\t 9000 ns/op\t 12.54 GFLOP/s\t 0 B/op\t 0 allocs/op\n"+
		"BenchmarkGEMMBias/conv2_16x49x72c9-2 \t--- FAIL: some log line\n")
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "GEMMBias/conv2_16x49x72c9" || b.Runs != 2 || b.NsPerOp != 7629 || b.BPerOp != 0 || b.AllocsOp != 0 {
		t.Errorf("record = %+v, want best-of-2: 7629 ns/op, 0 B/op, 0 allocs/op", b)
	}
	if len(b.Extra) != 1 || b.Extra["GFLOP/s"] != 14.80 {
		t.Errorf("extra = %v, want the faster repetition's 14.80 GFLOP/s", b.Extra)
	}
	plain := parseSample(t, sampleBench)
	if plain.Benchmarks[0].Extra != nil {
		t.Errorf("a line without extra columns grew %v", plain.Benchmarks[0].Extra)
	}
}

func TestParseMergesBestOfN(t *testing.T) {
	rep := parseSample(t, sampleBench)
	w1 := rep.Benchmarks[0]
	if w1.Runs != 2 {
		t.Fatalf("workers=1 merged %d runs, want 2", w1.Runs)
	}
	// min ns/op and min allocs/op come from different repetitions; best-of
	// takes each dimension's minimum independently.
	if w1.NsPerOp != 46504898 || w1.AllocsOp != 405 {
		t.Errorf("workers=1 best-of = %+v, want ns 46504898 allocs 405", w1)
	}
	w8 := rep.Benchmarks[1]
	if w8.NsPerOp != 44000000 || w8.BPerOp != 1271832 {
		t.Errorf("workers=8 best-of = %+v, want ns 44000000 bytes 1271832", w8)
	}
}

func TestParseStripsProcsSuffix(t *testing.T) {
	rep := parseSample(t, sampleMulticore)
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	w8 := rep.Benchmarks[1]
	if w8.Name != "HierAdMoCNN/workers=8" {
		t.Errorf("suffix not stripped: %q", w8.Name)
	}
	if w8.Procs != 8 || w8.Workers != 8 {
		t.Errorf("procs/workers = %d/%d, want 8/8", w8.Procs, w8.Workers)
	}
}

// TestCompareFlagsRegressions: time is reported, never gated. Identical runs,
// a slower run and a faster one all pass; only B/op and allocs/op can fail.
func TestCompareFlagsRegressions(t *testing.T) {
	base := parseSample(t, sampleBench)
	cur := parseSample(t, sampleBench)

	if regs := compare(cur, base, defaultTol()); len(regs) != 0 {
		t.Errorf("identical runs flagged: %v", regs)
	}

	// 25% slower: reported by timings, not a regression.
	cur.Benchmarks[0].NsPerOp = base.Benchmarks[0].NsPerOp * 1.25
	if regs := compare(cur, base, defaultTol()); len(regs) != 0 {
		t.Errorf("25%% growth in ns/op gated: %v", regs)
	}

	// A bytes regression alongside it fails, and only that entry.
	cur.Benchmarks[1].BPerOp = base.Benchmarks[1].BPerOp * 1.25
	regs := compare(cur, base, defaultTol())
	if len(regs) != 1 || !strings.Contains(regs[0], "workers=8") || !strings.Contains(regs[0], "B/op") {
		t.Errorf("25%% growth in B/op yields %v, want one workers=8 regression", regs)
	}
}

func TestCompareFlagsAllocAndBytesRegressions(t *testing.T) {
	base := parseSample(t, sampleBench)

	// Injected alloc regression: the round loop starts allocating again.
	cur := parseSample(t, sampleBench)
	cur.Benchmarks[0].AllocsOp = base.Benchmarks[0].AllocsOp * 3
	regs := compare(cur, base, defaultTol())
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("tripled allocs/op yields %v, want one allocs/op regression", regs)
	}

	// Injected bytes regression, allocs unchanged: only the bytes gate fires.
	cur = parseSample(t, sampleBench)
	cur.Benchmarks[0].BPerOp = base.Benchmarks[0].BPerOp * 2
	regs = compare(cur, base, defaultTol())
	if len(regs) != 1 || !strings.Contains(regs[0], "B/op") {
		t.Fatalf("doubled B/op yields %v, want one B/op regression", regs)
	}

	// The tolerances are independent: a loose alloc budget does not excuse
	// a bytes regression, and a loose bytes budget clears it.
	if regs := compare(cur, base, tolerances{bytes: 0.10, allocs: 10}); len(regs) != 1 {
		t.Errorf("bytes gate silenced by alloc budget: %v", regs)
	}
	if regs := compare(cur, base, tolerances{bytes: 2.0, allocs: 0.10}); len(regs) != 0 {
		t.Errorf("loose bytes budget still flags: %v", regs)
	}
}

func TestComparePinsZeroBaselines(t *testing.T) {
	// An allocation-free benchmark has no percentage to grow by: without an
	// absolute rule its first allocation would pass the gate.
	base := parseSample(t, sampleBench)
	base.Benchmarks[0].BPerOp, base.Benchmarks[0].AllocsOp = 0, 0
	cur := parseSample(t, sampleBench)
	cur.Benchmarks[0].BPerOp, cur.Benchmarks[0].AllocsOp = 9, 0
	if regs := compare(cur, base, defaultTol()); len(regs) != 0 {
		t.Errorf("a stray %v B/op against a zero baseline flagged: %v", cur.Benchmarks[0].BPerOp, regs)
	}
	cur.Benchmarks[0].BPerOp, cur.Benchmarks[0].AllocsOp = 49216, 1
	regs := compare(cur, base, defaultTol())
	if len(regs) != 2 || !strings.Contains(regs[0], "B/op vs baseline 0") || !strings.Contains(regs[1], "allocs/op vs baseline 0") {
		t.Errorf("allocating against a zero baseline yields %v, want a B/op and an allocs/op regression", regs)
	}
}

func TestCompareReportsUngatedTimings(t *testing.T) {
	// A 3x slower run passes, its ns/op is still reported, and the byte and
	// alloc gates (zero baselines included) hold.
	base := parseSample(t, sampleBench)
	base.Benchmarks[0].BPerOp, base.Benchmarks[0].AllocsOp = 0, 0
	cur := parseSample(t, sampleBench)
	cur.Benchmarks[0].BPerOp, cur.Benchmarks[0].AllocsOp = 0, 0
	cur.Benchmarks[0].NsPerOp = base.Benchmarks[0].NsPerOp * 3
	if regs := compare(cur, base, defaultTol()); len(regs) != 0 {
		t.Errorf("ns/op gated: %v", regs)
	}
	lines := timings(cur, base)
	if len(lines) != len(base.Benchmarks) || !strings.Contains(lines[0], "(+200.0%)") {
		t.Errorf("timings = %v, want one line per benchmark, the first at +200%%", lines)
	}
	cur.Benchmarks[0].AllocsOp = 3
	if regs := compare(cur, base, defaultTol()); len(regs) != 1 || !strings.Contains(regs[0], "allocs/op vs baseline 0") {
		t.Errorf("allocating against a zero baseline yields %v, want one allocs/op regression", regs)
	}
}

func TestCompareSkipsUnmatchedNames(t *testing.T) {
	base := parseSample(t, sampleBench)
	cur := parseSample(t, sampleBench)
	cur.Benchmarks[0].Name = "BrandNewBenchmark"
	cur.Benchmarks[0].NsPerOp = 1e12
	if regs := compare(cur, base, defaultTol()); len(regs) != 0 {
		t.Errorf("benchmark missing from baseline flagged: %v", regs)
	}
}

func TestCheckScalingSingleCore(t *testing.T) {
	// On one core an 8-worker pool cannot beat one worker; the gate only
	// demands it stay within the overhead budget.
	rep := parseSample(t, sampleBench)
	if f := checkScaling(rep, 2.0, 0.15); len(f) != 0 {
		t.Errorf("near-parity on a single core flagged: %v", f)
	}

	// Injected scaling regression: the worker phase serializes AND adds
	// contention, so workers=8 runs 1.5x the workers=1 time.
	rep.Benchmarks[1].NsPerOp = rep.Benchmarks[0].NsPerOp * 1.5
	f := checkScaling(rep, 2.0, 0.15)
	if len(f) != 1 || !strings.Contains(f[0], "workers=8") {
		t.Fatalf("1.5x slowdown yields %v, want one workers=8 failure", f)
	}
}

func TestCheckScalingMulticore(t *testing.T) {
	// 8 cores, 8 workers, ~5.8x speedup: well under the slack/usable
	// threshold of 0.25x.
	rep := parseSample(t, sampleMulticore)
	if f := checkScaling(rep, 2.0, 0.15); len(f) != 0 {
		t.Errorf("real speedup flagged: %v", f)
	}

	// The bug this gate exists for: flat scaling (ratio ~= 1) with cores
	// available — the workers=8 run barely differs from workers=1.
	rep.Benchmarks[1].NsPerOp = rep.Benchmarks[0].NsPerOp * 0.98
	f := checkScaling(rep, 2.0, 0.15)
	if len(f) != 1 {
		t.Fatalf("flat scaling on 8 cores yields %v, want one failure", f)
	}
	if !strings.Contains(f[0], "want <= 0.25x") {
		t.Errorf("failure %q does not state the 0.25x threshold", f[0])
	}
}

func TestCheckScalingIgnoresFamiliesWithoutBaseline(t *testing.T) {
	rep := parseSample(t, sampleMulticore)
	rep.Benchmarks = rep.Benchmarks[1:] // drop workers=1
	if f := checkScaling(rep, 2.0, 0.15); len(f) != 0 {
		t.Errorf("family without a workers=1 baseline flagged: %v", f)
	}
}

// TestSameHostRefusesForeignBaselines: a baseline from another GOMAXPROCS is
// one error naming the difference, not a regression per row; records present
// on one side only do not count. A baseline from another CPU model is
// compared — B/op and allocs/op do not depend on the model — and its ns/op
// lines are labelled cross-host.
func TestSameHostRefusesForeignBaselines(t *testing.T) {
	single := parseSample(t, sampleBench)
	if err := sameHost(single, parseSample(t, sampleBench)); err != nil {
		t.Errorf("a report is not comparable with itself: %v", err)
	}
	for _, line := range timings(single, parseSample(t, sampleBench)) {
		if strings.Contains(line, "cross-host") {
			t.Errorf("same cpu labelled cross-host: %s", line)
		}
	}
	otherCPU := parseSample(t, strings.Replace(sampleBench, "2.10GHz", "2.70GHz", 1))
	if err := sameHost(single, otherCPU); err != nil {
		t.Errorf("cpu mismatch refused: %v", err)
	}
	lines := timings(single, otherCPU)
	if len(lines) != len(single.Benchmarks) {
		t.Fatalf("cross-host timings = %v, want one line per benchmark", lines)
	}
	for _, line := range lines {
		if !strings.Contains(line, "cross-host") || !strings.Contains(line, "2.70GHz") || !strings.Contains(line, "2.10GHz") {
			t.Errorf("cross-host ns/op line %q does not name both cpu models", line)
		}
	}
	multi := parseSample(t, strings.Replace(sampleMulticore, "pkg:", "cpu: Test CPU @ 2.10GHz\npkg:", 1))
	if err := sameHost(multi, single); err == nil || !strings.Contains(err.Error(), "procs=8") {
		t.Errorf("procs mismatch: err = %v, want one naming both GOMAXPROCS", err)
	}
	multi.Benchmarks = multi.Benchmarks[:0]
	if err := sameHost(multi, single); err != nil {
		t.Errorf("no common benchmark, same cpu: %v", err)
	}
}

// TestLoadReportRejectsBadBaselines pins the gate's failure modes: a
// missing file, malformed JSON, and — the silent one — schema-valid JSON
// with zero benchmark records, which would make every comparison pass
// vacuously.
func TestLoadReportRejectsBadBaselines(t *testing.T) {
	dir := t.TempDir()

	if _, err := loadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing baseline loaded without error")
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(bad); err == nil {
		t.Error("malformed baseline loaded without error")
	}

	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(empty); err == nil {
		t.Error("zero-record baseline loaded without error")
	} else if !strings.Contains(err.Error(), "no benchmark records") {
		t.Errorf("zero-record error = %v", err)
	}

	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"benchmarks":[{"name":"X","iterations":1,"ns_per_op":1,"b_per_op":0,"allocs_per_op":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(good); err != nil {
		t.Errorf("valid baseline rejected: %v", err)
	}
}
