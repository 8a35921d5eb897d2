package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's old and new distribution. The new median may be
// worse than the old by at most the bound; where either side's own
// inter-quartile spread exceeds the bound the comparison cannot tell a
// regression from noise and is unresolved, not unchanged. worse is the
// relative change in the direction that counts against the change.
func judge(m metric, old, cur summary) (worse float64, verdict string) {
	if old.Median != 0 {
		worse = (cur.Median - old.Median) / old.Median
	}
	if m.Better == higher {
		worse = -worse
	}
	switch {
	case old.spread() > m.Bound || cur.spread() > m.Bound:
		return worse, verdictUnresolved
	case worse > m.Bound:
		return worse, verdictRegression
	}
	return worse, verdictOK
}

// compareSets prints one row per workload × end-to-end metric and reports
// whether any regressed. Every -compare and the -repeat self-agreement
// check go through here.
func compareSets(old, cur *suiteResult, w io.Writer) (regressed bool) {
	if old.Seed != cur.Seed || old.Procs != cur.Procs {
		fmt.Fprintf(w, "note: comparing seed %d procs %d against seed %d procs %d\n", old.Seed, old.Procs, cur.Seed, cur.Procs)
	}
	fmt.Fprintf(w, "%-18s %-20s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "old", "[q1, q3]", "new", "[q1, q3]", "worse", "bound", "verdict")
	for i := range old.Workloads {
		was := &old.Workloads[i]
		var is *workloadResult
		for j := range cur.Workloads {
			if cur.Workloads[j].Name == was.Name {
				is = &cur.Workloads[j]
			}
		}
		if is == nil {
			fmt.Fprintf(w, "%-18s missing from the new result\n", was.Name)
			regressed = true
			continue
		}
		if is.Failed > 0 {
			fmt.Fprintf(w, "%-18s %d of %d reps failed in the new result\n", is.Name, is.Failed, is.Attempted)
			regressed = true
		}
		for _, m := range endToEnd {
			a, b := was.EndToEnd[m.Name], is.EndToEnd[m.Name]
			worse, verdict := judge(m, a, b)
			if verdict == verdictRegression {
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-20s %12.6g %25s %12.6g %25s %+7.1f%% %5.0f%%  %s\n",
				was.Name, m.Name, a.Median, fmt.Sprintf("[%.5g, %.5g]", a.Q1, a.Q3),
				b.Median, fmt.Sprintf("[%.5g, %.5g]", b.Q1, b.Q3), worse*100, m.Bound*100, verdict)
		}
		// The logical payload is fixed by the protocol: it must repeat exactly.
		if a, b := was.PerLayer["payload_kb_per_round"], is.PerLayer["payload_kb_per_round"]; a.Value != b.Value {
			fmt.Fprintf(w, "%-18s payload_kb_per_round changed: %v -> %v kB\n", was.Name, a.Value, b.Value)
		}
	}
	return regressed
}

func readResult(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Sets) == 0 {
		return nil, fmt.Errorf("%s: no result sets", path)
	}
	return &file.Sets[0], nil
}

// compareFiles compares the first set of two result files; exit code 1
// reports a regression.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var sets [2]*suiteResult
	for i, path := range []string{oldPath, newPath} {
		set, err := readResult(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sets[i] = set
	}
	if compareSets(sets[0], sets[1], stdout) {
		return 1
	}
	return 0
}
