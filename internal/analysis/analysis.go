// Package analysis is a from-scratch static-analysis framework on the
// stdlib go/parser, go/ast, and go/types packages (no x/tools dependency).
// It exists to enforce, at vet time, the invariants every headline claim of
// this reproduction rests on — bit-identical runs across worker-pool sizes,
// byte-diffable golden traces, checkpoint resume fidelity — instead of
// relying on after-the-fact tests to catch violations:
//
//   - detwall: no wall-clock (time.Now/Since/Until) or global math/rand in
//     determinism-critical packages;
//   - maporder: no map-iteration-ordered appends, float accumulations, or
//     trace emissions (the PartitionClasses class of bug);
//   - goexec: goroutines and sync.WaitGroup only via internal/parallel and
//     the cluster runtime;
//   - wirealloc: no allocations sized from decoded wire/snapshot length
//     fields without a bounds check (the class FuzzOpenSnapshot caught);
//   - nilsink: telemetry instrument methods keep their nil-receiver guard,
//     preserving the "nil sink is free" contract;
//   - ckptstate: every mutable stateful field of a struct registered with
//     internal/checkpoint.Registry is covered by a registration call
//     (cross-package, on the call graph in callgraph.go).
//
// What a test already guards has no checker here: allocation-free hot
// paths are pinned by the runtime alloc tests, and reductions fed by
// channels or goroutine fan-in by the pool-size bit-identity tests
// (DESIGN.md §11 records which of checker and test catches what).
//
// A finding is suppressed by an exemption directive on the offending line
// (or the line above):
//
//	//flvet:allow <checker>[,<checker>...] -- <reason>
//
// The reason is mandatory and unused directives are themselves errors, so
// stale exemptions cannot linger. The cmd/flvet driver loads every package
// in the module (via `go list -export` for dependency type information),
// runs the suite, and exits nonzero on any finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the checker that produced it, and
// a human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Checker string
	Message string
}

// String renders the finding the way compilers do: file:line:col: checker: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Checker, d.Message)
}

// Checker is one analysis: a name (used in diagnostics and directives), a
// one-line doc string, and the function that inspects a package.
type Checker struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is the per-(checker, package) invocation context handed to
// Checker.Run: the package's syntax and type information plus the policy
// in force, the whole-program call graph ckptstate works on, and the
// Reportf sink for findings.
type Pass struct {
	Fset   *token.FileSet
	Pkg    *Package
	Policy Policy
	Prog   *Program

	checker string
	diags   *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Checker: p.checker,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression (nil when untyped).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes (declaration or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// Checkers returns the full suite in its fixed reporting order.
func Checkers() []*Checker {
	return []*Checker{
		detwallChecker,
		maporderChecker,
		goexecChecker,
		wireallocChecker,
		nilsinkChecker,
		ckptstateChecker,
	}
}

// checkerKnown reports whether name is a registered checker (directives
// naming anything else are malformed).
func checkerKnown(name string) bool {
	for _, c := range Checkers() {
		if c.Name == name {
			return true
		}
	}
	return false
}

// Run executes the checkers over every package under the policy, applies
// //flvet:allow suppressions, and returns the surviving diagnostics —
// including errors for malformed and unused directives — sorted by
// position.
func Run(pkgs []*Package, checkers []*Checker, pol Policy) []Diagnostic {
	var diags []Diagnostic
	var dirs []*directive
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		ds, derrs := collectDirectives(pkg)
		dirs = append(dirs, ds...)
		diags = append(diags, derrs...)
		for _, c := range checkers {
			if !pol.Applies(c.Name, pkg.Path) {
				continue
			}
			pass := &Pass{Fset: pkg.Fset, Pkg: pkg, Policy: pol, Prog: prog, checker: c.Name, diags: &diags}
			c.Run(pass)
		}
	}
	all := append([]Diagnostic(nil), diags...) // pre-suppression view, for relocation hints
	diags = suppress(diags, dirs)
	for _, d := range dirs {
		if !d.used {
			diags = append(diags, Diagnostic{
				Pos:     d.pos,
				Checker: "flvet",
				Message: fmt.Sprintf("unused flvet:allow directive for %q (nothing to suppress here%s)",
					d.checkers, nearestFindingHint(all, d)),
			})
		}
	}
	sortDiags(diags)
	return diags
}

// nearestFindingHint locates the finding the stale directive probably
// meant to cover: the closest diagnostic (by line distance) in the same
// file from any checker the directive names.
func nearestFindingHint(all []Diagnostic, d *directive) string {
	bestLine, bestDist := 0, -1
	var bestChecker string
	for _, diag := range all {
		if diag.Pos.Filename != d.file {
			continue
		}
		match := false
		for _, name := range d.checkers {
			if name == diag.Checker {
				match = true
			}
		}
		if !match {
			continue
		}
		dist := diag.Pos.Line - d.line
		if dist < 0 {
			dist = -dist
		}
		if bestDist < 0 || dist < bestDist {
			bestDist, bestLine, bestChecker = dist, diag.Pos.Line, diag.Checker
		}
	}
	if bestDist < 0 {
		return "; no matching findings anywhere in this file"
	}
	return fmt.Sprintf("; nearest %s finding in this file is on line %d", bestChecker, bestLine)
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Checker < b.Checker
	})
}
