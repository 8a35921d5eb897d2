package baseline

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"

	"hieradmo/internal/core"
)

// TestPureRowsHaveNoArithmetic: FedAvg, FedNAG, FastSlowMo and HierFAVG are
// configurations of Algorithm 1 — no hook, no vector of their own — and the
// package's non-test code calls vector arithmetic only inside the hook
// constructors of hooks.go, so Leaf.Step, Tier.Update and GradOracle.Grad
// stay the only update arithmetic of a pure row.
func TestPureRowsHaveNoArithmetic(t *testing.T) {
	for _, row := range []*core.Rule{&fedAvg, &fedNAG, &fastSlowMo, &hierFAVG} {
		if row.Hooks != nil || row.Extra != nil {
			t.Errorf("%s is meant to be a pure row but carries a hook", row.Algorithm)
		}
	}

	arithmetic := map[string]bool{"AXPY": true, "WeightedSum": true, "Lerp": true,
		"Add": true, "Sub": true, "Scale": true, "Dot": true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !arithmetic[sel.Sel.Name] {
						return true
					}
					calls++
					if !strings.HasSuffix(fn.Name.Name, "Hooks") {
						t.Errorf("%s: %s called in %s, outside a hook constructor",
							fset.Position(call.Pos()), sel.Sel.Name, fn.Name.Name)
					}
					return true
				})
			}
		}
	}
	if calls == 0 {
		t.Error("found no vector arithmetic at all; the scan is broken")
	}
}
