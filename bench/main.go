// Command bench is the repository's benchmark: five closed-loop training
// workloads measured end to end (tracing off) and layer by layer (a traced
// rep plus layer probes), with a correctness oracle on every rep. See
// README.md in this directory for the workloads, the metrics and how the
// layers map onto the end-to-end numbers.
//
// Driver mode runs one workload and ends with one JSON result line:
//
//	bench --workload sim_cnn --seed 1 --seconds 10 --trace 0
//
// Suite mode runs every workload both ways and writes a result file; with
// -repeat 2 it does so twice and compares the two sets:
//
//	bench -out bench/out/result.json [-seed 1] [-repeat 2]
//	bench -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "driver mode: run this one workload and end with one JSON result line")
	trace := fs.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics (tracing off), 1 the per-layer metrics (traced reps and probes)")
	seed := fs.Uint64("seed", 1, "seed every workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measuring time of each phase of each workload")
	out := fs.String("out", "bench/out/result.json", "suite mode: result file; traces and scratch directories go beside it")
	repeat := fs.Int("repeat", 1, "suite mode: run the whole suite this many times and compare the first two sets")
	quick := fs.Bool("quick", false, "smoke-test sizes: one cloud round, one rep, one-call probes")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *repeat < 1 || *seconds < 0 || *trace < 0 || *trace > 1 {
		fs.Usage()
		return 2
	}

	p := params{seed: *seed, seconds: *seconds, quick: *quick, outDir: filepath.Dir(*out), procs: min(runtime.NumCPU(), 4)}
	runtime.GOMAXPROCS(p.procs)
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		return drive(w, p, *trace == 1, stdout, stderr)
	}

	start := now()
	file := resultFile{}
	ok := true
	for i := 0; i < *repeat; i++ {
		set, failures, err := suite(p, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for _, f := range failures {
			fmt.Fprintln(stderr, "bench: FAILED:", f)
			ok = false
		}
		file.Sets = append(file.Sets, set)
	}
	if len(file.Sets) > 1 {
		fmt.Fprintf(stdout, "\nself-agreement: set 1 against set 2\n")
		if compareSets(&file.Sets[0], &file.Sets[1], stdout) {
			ok = false
		}
	}
	file.TotalWallS = since(start)
	fmt.Fprintf(stdout, "\ntotal benchmark wall time %.1f s; claim: null\n", file.TotalWallS)
	if err := writeJSON(*out, &file); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's row of a result file.
type workloadResult struct {
	Name       string             `json:"name"`
	Why        string             `json:"why"`
	Reps       int                `json:"reps"`
	TargetIter int                `json:"target_iter"`
	TargetAcc  float64            `json:"target_acc"`
	FinalAcc   float64            `json:"final_acc"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	EndToEnd   map[string]summary `json:"end_to_end"`
	PerLayer   map[string]value   `json:"per_layer"`
}

// suiteResult is one pass over every workload plus the layer probes.
type suiteResult struct {
	Seed      uint64           `json:"seed"`
	Procs     int              `json:"procs"`
	Go        string           `json:"go"`
	Seconds   float64          `json:"seconds"`
	Quick     bool             `json:"quick,omitempty"`
	Workloads []workloadResult `json:"workloads"`
	Probes    map[string]value `json:"probes"`
}

// resultFile is what suite mode writes. The benchmark claims no gain.
type resultFile struct {
	Sets       []suiteResult `json:"sets"`
	TotalWallS float64       `json:"total_wall_s"`
	Claim      *string       `json:"claim"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// finite reports the first metric of table missing from have or not a finite
// number; end-to-end metrics must also be non-zero.
func finite(table []metric, have map[string]float64, nonZero bool) error {
	for _, m := range table {
		v, ok := have[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("metric %s is %v", m.Name, v)
		case nonZero && v == 0:
			return fmt.Errorf("metric %s is 0", m.Name)
		}
	}
	return nil
}

// withUnits attaches the table's units to the values measured, in no
// particular order (output walks the table, not the map).
func withUnits(table []metric, vals map[string]float64) map[string]value {
	out := make(map[string]value)
	for _, m := range table {
		if v, ok := vals[m.Name]; ok {
			out[m.Name] = value{Value: v, Unit: m.Unit}
		}
	}
	return out
}

func printValues(w io.Writer, table []metric, vals map[string]value) {
	for _, m := range table {
		if v, ok := vals[m.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

// drive is driver mode: one workload, one phase, one JSON result line.
func drive(w *workload, p params, layers bool, stdout, stderr io.Writer) int {
	r, err := newRunner(w, p)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	table := endToEnd
	vals := make(map[string]float64)
	if layers {
		table = perLayer
		if vals, err = r.layers(); err == nil && r.failed == 0 {
			var probed map[string]float64
			probed, err = probes(p)
			for _, m := range perLayer {
				if v, ok := probed[m.Name]; ok {
					vals[m.Name] = v
				}
			}
		}
	} else {
		s := r.endToEnd()
		for _, m := range endToEnd {
			vals[m.Name] = median(s[m.Name])
		}
	}
	// A rep that failed or missed the oracle leaves no result to report:
	// the run ends non-zero with the misses on standard error.
	for _, f := range r.failures {
		fmt.Fprintln(stderr, "bench: FAILED:", f)
	}
	if err == nil && r.failed > 0 {
		err = fmt.Errorf("%d of %d reps failed", r.failed, r.attempted)
	}
	if err == nil {
		err = finite(table, vals, !layers)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.attempted, r.failed, withUnits(table, vals)}
	fmt.Fprintf(stdout, "%s seed %d procs %d: target_acc %.4f at iter %d, final_acc %.4f\n",
		w.Name, p.seed, p.procs, r.targetAcc, r.targetIter, r.first.FinalAcc)
	printValues(stdout, table, result.Metrics)
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// suite runs every workload end to end and layer by layer, then the probes.
func suite(p params, stdout io.Writer) (suiteResult, []string, error) {
	set := suiteResult{Seed: p.seed, Procs: p.procs, Go: runtime.Version(), Seconds: p.seconds, Quick: p.quick}
	var failures []string
	for i := range workloads {
		w := &workloads[i]
		r, err := newRunner(w, p)
		if err != nil {
			return set, nil, err
		}
		s := r.endToEnd()
		var layerVals map[string]float64
		if r.failed == 0 {
			if layerVals, err = r.layers(); err != nil {
				return set, nil, err
			}
		}
		row := workloadResult{
			Name: w.Name, Why: w.Why, Reps: len(s["wall_s"]),
			TargetIter: r.targetIter, TargetAcc: r.targetAcc,
			Attempted: r.attempted, Failed: r.failed,
			EndToEnd: make(map[string]summary), PerLayer: withUnits(perLayer, layerVals),
		}
		if r.first != nil {
			row.FinalAcc = r.first.FinalAcc
		}
		fmt.Fprintf(stdout, "\n%s (seed %d, procs %d, %d timed reps): target_acc %.4f at iter %d, final_acc %.4f, %d/%d reps failed\n",
			w.Name, p.seed, p.procs, row.Reps, row.TargetAcc, row.TargetIter, row.FinalAcc, r.failed, r.attempted)
		medians := make(map[string]float64)
		for _, m := range endToEnd {
			sum := summarize(s[m.Name], m.Unit)
			row.EndToEnd[m.Name] = sum
			medians[m.Name] = sum.Median
			fmt.Fprintf(stdout, "  %-32s %14.6g %s  [q1 %.6g, q3 %.6g, n %d, bound %.0f%%]\n",
				m.Name, sum.Median, m.Unit, sum.Q1, sum.Q3, sum.N, m.Bound*100)
		}
		printValues(stdout, perLayer, row.PerLayer)
		failures = append(failures, r.failures...)
		if r.failed == 0 {
			if err := finite(endToEnd, medians, true); err != nil {
				failures = append(failures, w.Name+": "+err.Error())
			}
		}
		set.Workloads = append(set.Workloads, row)
		// Return this workload's garbage to the OS so it is not billed to,
		// or resident during, the next one.
		debug.FreeOSMemory()
	}
	probed, err := probes(p)
	if err != nil {
		return set, nil, err
	}
	set.Probes = withUnits(perLayer, probed)
	fmt.Fprintf(stdout, "\nlayer probes\n")
	printValues(stdout, perLayer, set.Probes)
	return set, failures, nil
}
