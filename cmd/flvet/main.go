// Command flvet runs the repo's project-specific static-analysis suite
// (internal/analysis) over the module: determinism and robustness
// invariants — no wall-clock or unseeded randomness in deterministic
// paths, no map-iteration order reaching reductions or the trace,
// goroutines only via internal/parallel, no allocations sized from
// unvalidated wire bytes, nil-safe telemetry instruments, and complete
// checkpoint registration — enforced at vet time instead of discovered by
// golden-trace diffs after the fact.
//
// Usage:
//
//	flvet ./...                  # whole module (what make lint runs)
//	flvet ./internal/core        # one package
//	flvet -list                  # print the checkers and their one-line docs
//
// Findings print as file:line:col: checker: message, with the file
// relative to the module root. A finding is suppressed by annotating the
// offending line (or the line above) with
//
//	//flvet:allow <checker>[,<checker>...] -- <reason>
//
// Unused or malformed directives are errors too. Exit status: 0 clean,
// 1 findings, 2 usage or load failure.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hieradmo/internal/analysis"
)

const usage = "usage: flvet [-list] [packages]"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	var patterns []string
	for _, arg := range args {
		switch arg {
		case "-list", "--list":
			for _, c := range analysis.Checkers() {
				fmt.Fprintf(out, "%-10s %s\n", c.Name, c.Doc)
			}
			return 0
		case "-h", "-help", "--help":
			fmt.Fprintln(errOut, usage)
			return 2
		default:
			if strings.HasPrefix(arg, "-") {
				fmt.Fprintf(errOut, "flvet: unknown flag %q (%s)\n", arg, usage)
				return 2
			}
			patterns = append(patterns, arg)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(errOut, "flvet:", err)
		return 2
	}
	root, module, err := analysis.ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(errOut, "flvet:", err)
		return 2
	}
	pkgs, err := analysis.LoadModule(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(errOut, "flvet:", err)
		return 2
	}
	diags := analysis.Run(pkgs, analysis.Checkers(), analysis.DefaultPolicy(module))
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		fmt.Fprintln(out, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(errOut, "flvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
