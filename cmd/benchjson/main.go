// Command benchjson converts `go test -bench -benchmem` text output on stdin
// into a JSON benchmark record, so `make bench` can track the core perf
// trajectory (ns/op, B/op, allocs/op, worker-pool size) across PRs in a file
// that diffs cleanly.
//
// Repeated lines for the same benchmark (a `-count=N` run) are merged
// best-of-N: the minimum ns/op, B/op and allocs/op across repetitions. The
// minimum is the right noise estimator for a gate — scheduling interference
// and GC pauses only ever add time, so the fastest repetition is the closest
// observation of the code's true cost, and a gate on the mean would flap on a
// loaded CI box. The GOMAXPROCS `-N` suffix Go appends to benchmark names on
// multicore hosts is stripped into a `procs` field so reports from different
// machines diff by name. Columns a benchmark adds itself (SetBytes' MB/s, a
// ReportMetric unit such as GFLOP/s) are kept per row in an `extra` map, from
// the repetition whose time is kept; they are recorded, not gated.
//
// Usage:
//
//	go test -bench=. -benchmem -count=3 ./internal/core | benchjson -out BENCH_core.json
//
// With -baseline it additionally diffs the fresh run against a committed
// report: it prints every benchmark's ns/op against the baseline's, and exits
// 1 when any benchmark's B/op or allocs/op regressed beyond its tolerance flag
// — the perf gate `make check` runs. Time is reported, never gated: B/op and
// allocs/op repeat run to run, while ns/op on a shared host spreads wider
// than any budget that would still catch a regression, so a time budget
// failed on untouched code as often as not. A baseline recorded at another
// GOMAXPROCS is refused outright (see sameHost); one from another CPU model
// is gated all the same, its ns/op lines labelled cross-host:
//
//	go test -bench=. -benchmem -count=3 ./internal/core | benchjson -baseline BENCH_core.json
//
// With -check-scaling it also verifies, within the fresh run, that every
// workers=N benchmark beats its workers=1 sibling by a margin scaled to how
// many cores the host actually has (see checkScaling) — the gate that would
// have caught the flat 1→8 scaling this repo shipped with for five PRs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// record is one benchmark result (best-of-N when the input repeats names).
type record struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers,omitempty"`
	Procs      int     `json:"procs,omitempty"` // GOMAXPROCS suffix; 1 when Go omits it
	Runs       int     `json:"runs,omitempty"`  // repetitions merged into this record
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BPerOp     float64 `json:"b_per_op"`
	AllocsOp   int64   `json:"allocs_per_op"`
	// Extra holds every other `value unit` column of the line, by unit: what
	// a benchmark reports through SetBytes (MB/s) or ReportMetric (GFLOP/s).
	// Recorded, not gated.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// report is the full BENCH_core.json document.
type report struct {
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	Package    string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []record `json:"benchmarks"`
}

// zeroBaselineBytes is the B/op a benchmark whose baseline is 0 may show.
const zeroBaselineBytes = 64

// tolerances are the fractional regression budgets of the gated dimensions.
type tolerances struct {
	bytes  float64
	allocs float64
}

var (
	// benchLine matches e.g.
	// BenchmarkHierAdMoCNN/workers=2-8  3  412345678 ns/op  1234 B/op  56 allocs/op
	// and captures everything after the iteration count: a run of `value unit`
	// columns. go test prints what SetBytes and ReportMetric add (MB/s,
	// GFLOP/s, …) between ns/op and B/op, so the columns are read by unit,
	// never by position.
	benchLine   = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)((?:\s+\S+\s+\S+)+)\s*$`)
	workersTag  = regexp.MustCompile(`workers=(\d+)`)
	headerLine  = regexp.MustCompile(`^(goos|goarch|pkg|cpu):\s*(.*)$`)
	procsSuffix = regexp.MustCompile(`^(.+)-(\d+)$`)
)

func main() {
	out := flag.String("out", "", "write JSON to this file (default stdout)")
	baseline := flag.String("baseline", "", "diff against this committed report: print ns/op, fail on a B/op or allocs/op regression")
	maxBytes := flag.Float64("max-bytes-regress", 0.10, "tolerated fractional B/op growth over the baseline")
	maxAllocs := flag.Float64("max-alloc-regress", 0.10, "tolerated fractional allocs/op growth over the baseline")
	checkScal := flag.Bool("check-scaling", false, "verify workers=N benchmarks against workers=1 within the fresh run")
	slack := flag.Float64("scaling-slack", 2.0, "multiple of the ideal 1/min(workers,procs) ratio tolerated when cores are available")
	overhead := flag.Float64("scaling-overhead", 0.15, "tolerated fractional slowdown of workers=N vs workers=1 when cores are not available")
	flag.Parse()
	tol := tolerances{bytes: *maxBytes, allocs: *maxAllocs}
	if err := run(*out, *baseline, tol, *checkScal, *slack, *overhead); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out, baseline string, tol tolerances, checkScal bool, slack, overhead float64) error {
	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	var failures []string
	if checkScal {
		failures = append(failures, checkScaling(rep, slack, overhead)...)
	}
	if baseline != "" {
		base, err := loadReport(baseline)
		if err != nil {
			return err
		}
		if err := sameHost(rep, base); err != nil {
			return fmt.Errorf("cannot compare against %s: %w; regenerate the baseline on this host (make bench)", baseline, err)
		}
		failures = append(failures, compare(rep, base, tol)...)
		for _, line := range timings(rep, base) {
			fmt.Fprintln(os.Stderr, "benchjson: not gated:", line)
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "benchjson: regression:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark check(s) failed", len(failures))
	}
	if baseline != "" {
		fmt.Fprintf(os.Stderr, "benchjson: no regression beyond bytes %.0f%% / allocs %.0f%% vs %s\n",
			100*tol.bytes, 100*tol.allocs, baseline)
	}
	if out == "" && baseline != "" {
		return nil // diff-only invocation: keep stdout clean for pipelines
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(out, buf, 0o644)
}

// loadReport reads a committed benchmark report.
func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		// Schema-valid JSON with no records would make every comparison
		// vacuously pass — the silent form of a missing baseline.
		return nil, fmt.Errorf("baseline %s contains no benchmark records; regenerate it with -out", path)
	}
	return &rep, nil
}

// sameHost refuses a comparison the gated numbers cannot support: another
// GOMAXPROCS moves B/op and allocs/op of the workers=N benchmarks (a pool
// never spawns more goroutines than procs), so diffing across it would
// report one hardware difference as a regression per row. Another CPU model
// does not move them — it moves ns/op, which timings only reports.
func sameHost(cur, base *report) error {
	baseProcs := make(map[string]int, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseProcs[b.Name] = b.Procs
	}
	for _, c := range cur.Benchmarks {
		if p, ok := baseProcs[c.Name]; ok && p != c.Procs {
			return fmt.Errorf("baseline ran %s at procs=%d, this run at procs=%d", c.Name, p, c.Procs)
		}
	}
	return nil
}

// byName indexes a report's records by benchmark name.
func byName(rep *report) map[string]record {
	by := make(map[string]record, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		by[b.Name] = b
	}
	return by
}

// timings describes every matched benchmark's ns/op against the baseline's:
// time is reported, not gated. Against a baseline from another CPU model
// every line says so: the delta is the hardware's as much as the code's.
func timings(cur, base *report) []string {
	baseBy := byName(base)
	host := ""
	if cur.CPU != base.CPU {
		host = fmt.Sprintf(" [cross-host: baseline cpu %q, this run %q]", base.CPU, cur.CPU)
	}
	var out []string
	for _, c := range cur.Benchmarks {
		if b, ok := baseBy[c.Name]; ok && b.NsPerOp > 0 {
			out = append(out, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%+.1f%%)%s",
				c.Name, c.NsPerOp, b.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), host))
		}
	}
	return out
}

// compare diffs cur against base by benchmark name and describes every entry
// whose B/op or allocs/op grew beyond its tolerance; ns/op is timings' to
// report. Benchmarks present on only one side are skipped: adding or retiring
// a benchmark is not a regression.
func compare(cur, base *report, tol tolerances) []string {
	baseBy := byName(base)
	var out []string
	for _, c := range cur.Benchmarks {
		b, ok := baseBy[c.Name]
		if !ok {
			continue
		}
		// A zero baseline has no percentage to grow by; a benchmark that
		// reached zero is pinned there (zeroBaselineBytes allows for a stray
		// runtime allocation amortised over a short fixed-count run).
		if b.BPerOp > 0 {
			if growth := c.BPerOp/b.BPerOp - 1; growth > tol.bytes {
				out = append(out, fmt.Sprintf("%s: %.0f B/op vs baseline %.0f (%+.1f%%)",
					c.Name, c.BPerOp, b.BPerOp, 100*growth))
			}
		} else if c.BPerOp > zeroBaselineBytes {
			out = append(out, fmt.Sprintf("%s: %.0f B/op vs baseline 0", c.Name, c.BPerOp))
		}
		if b.AllocsOp > 0 {
			if growth := float64(c.AllocsOp)/float64(b.AllocsOp) - 1; growth > tol.allocs {
				out = append(out, fmt.Sprintf("%s: %d allocs/op vs baseline %d (%+.1f%%)",
					c.Name, c.AllocsOp, b.AllocsOp, 100*growth))
			}
		} else if c.AllocsOp > 0 {
			out = append(out, fmt.Sprintf("%s: %d allocs/op vs baseline 0", c.Name, c.AllocsOp))
		}
	}
	return out
}

// checkScaling verifies, within one report, that every workers=N benchmark
// holds its own against the workers=1 variant of the same benchmark family.
//
// The threshold is aware of how many cores the host actually has, which is
// what the old "compare against a fixed expectation" approach got wrong: on
// the single-core container this repo benchmarks in, an 8-goroutine pool
// CANNOT run faster than a 1-goroutine pool — the gate there only demands it
// not be materially slower (1 + overhead). When cores are available the pool
// must deliver real speedup: the allowed ns/op ratio is slack × the ideal
// 1/min(workers, procs). The final threshold is
//
//	min(slack × 1/min(workers, procs), 1 + overhead)
//
// — on one core that is 1+overhead; on ≥2×slack cores it is a hard speedup
// demand. A serialized worker phase (ratio ≈ 1) fails everywhere cores exist.
func checkScaling(rep *report, slack, overhead float64) []string {
	// Index workers=1 baselines by benchmark family (name with the workers
	// tag normalized out).
	family := func(name string) string {
		return workersTag.ReplaceAllString(name, "workers=*")
	}
	base := make(map[string]record)
	for _, b := range rep.Benchmarks {
		if b.Workers == 1 {
			base[family(b.Name)] = b
		}
	}
	var out []string
	for _, c := range rep.Benchmarks {
		if c.Workers <= 1 {
			continue
		}
		b, ok := base[family(c.Name)]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		procs := c.Procs
		if procs <= 0 {
			procs = 1
		}
		usable := c.Workers
		if procs < usable {
			usable = procs
		}
		threshold := slack / float64(usable)
		if limit := 1 + overhead; threshold > limit {
			threshold = limit
		}
		if ratio := c.NsPerOp / b.NsPerOp; ratio > threshold {
			out = append(out, fmt.Sprintf(
				"%s: %.2fx the workers=1 time, want <= %.2fx (procs=%d, slack=%.2g, overhead=%.2g)",
				c.Name, ratio, threshold, procs, slack, overhead))
		}
	}
	return out
}

// parse consumes `go test -bench` output, stripping the GOMAXPROCS name
// suffix and merging repeated benchmark lines (-count > 1) best-of-N.
func parse(sc *bufio.Scanner) (*report, error) {
	rep := &report{Benchmarks: []record{}}
	index := make(map[string]int)
	for sc.Scan() {
		line := sc.Text()
		if h := headerLine.FindStringSubmatch(line); h != nil {
			switch h[1] {
			case "goos":
				rep.GoOS = h[2]
			case "goarch":
				rep.GoArch = h[2]
			case "pkg":
				rep.Package = h[2]
			case "cpu":
				rep.CPU = h[2]
			}
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rec := record{Name: strings.TrimPrefix(m[1], "Benchmark"), Procs: 1, Runs: 1}
		if s := procsSuffix.FindStringSubmatch(rec.Name); s != nil {
			// Go appends "-N" (N = GOMAXPROCS) on multicore hosts; fold it
			// into the procs field so names stay comparable across machines.
			rec.Name = s[1]
			rec.Procs, _ = strconv.Atoi(s[2])
		}
		var err error
		if rec.Iterations, err = strconv.ParseInt(m[2], 10, 64); err != nil {
			return nil, fmt.Errorf("line %q: %w", line, err)
		}
		if !rec.columns(strings.Fields(m[3])) {
			continue // a Benchmark… line of some other shape, not a result
		}
		if w := workersTag.FindStringSubmatch(rec.Name); w != nil {
			rec.Workers, _ = strconv.Atoi(w[1])
		}
		if at, seen := index[rec.Name]; seen {
			merge(&rep.Benchmarks[at], rec)
			continue
		}
		index[rec.Name] = len(rep.Benchmarks)
		rep.Benchmarks = append(rep.Benchmarks, rec)
	}
	return rep, sc.Err()
}

// columns reads a result line's `value unit` pairs into the record by unit and
// reports whether they were a result: every value a number, ns/op among them.
func (r *record) columns(cols []string) bool {
	timed := false
	for c := 0; c+1 < len(cols); c += 2 {
		v, err := strconv.ParseFloat(cols[c], 64)
		if err != nil {
			return false
		}
		switch unit := cols[c+1]; unit {
		case "ns/op":
			r.NsPerOp, timed = v, true
		case "B/op":
			r.BPerOp = v
		case "allocs/op":
			r.AllocsOp = int64(v)
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return timed
}

// merge folds a repetition into the existing record, keeping the minimum of
// every per-op dimension (see the package comment for why minimum).
func merge(dst *record, rep record) {
	dst.Runs += rep.Runs
	if rep.NsPerOp < dst.NsPerOp {
		// The extra columns are rates of the same timed loop: they travel
		// with the repetition whose time is kept.
		dst.NsPerOp = rep.NsPerOp
		dst.Iterations = rep.Iterations
		dst.Extra = rep.Extra
	}
	if rep.BPerOp < dst.BPerOp {
		dst.BPerOp = rep.BPerOp
	}
	if rep.AllocsOp < dst.AllocsOp {
		dst.AllocsOp = rep.AllocsOp
	}
}
