package analysis

import (
	"testing"
)

// TestModuleSelfGate runs the full checker suite over the whole module
// under the default policy and requires it to come back clean, so a plain
// `go test ./...` catches any new invariant violation (or stale
// //flvet:allow directive) even when make lint is skipped.
func TestModuleSelfGate(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	_, module, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module discovery looks broken", len(pkgs))
	}
	for _, d := range Run(pkgs, Checkers(), DefaultPolicy(module)) {
		t.Errorf("flvet finding: %s", d)
	}

	// The dataflow checkers must actually have engaged, not silently
	// no-oped: a clean result with no registration primitives resolved or
	// no hot roots pinned would mean the whole-program substrate lost the
	// real registry/kernels (e.g. after a rename) and the gate is
	// vacuous.
	var prog *Program
	for _, pkg := range pkgs {
		if len(pkg.Files) > 0 {
			prog = NewProgram(pkgs)
			break
		}
	}
	if prog == nil {
		t.Fatal("no loadable packages")
	}
	pol := DefaultPolicy(module)
	ckpt := prog.ckptFacts(pol)
	if len(ckpt.prims) != len(registrationKinds) {
		t.Errorf("ckptstate resolved %d registration primitives, want %d (is internal/checkpoint.Registry intact?)",
			len(ckpt.prims), len(registrationKinds))
	}
	if len(ckpt.fwd) == 0 {
		t.Error("ckptstate found no forwarders; fl.Checkpointer should forward to the registry")
	}
	// The kernel's state structs are registered by both drivers — the
	// simulation's checkpointer and the cluster nodes' registries — and each
	// cluster node also registers fields of its own.
	for _, owner := range []string{
		"hieradmo/internal/core.Leaf",
		"hieradmo/internal/core.Tier",
		"hieradmo/internal/cluster.treeLeaf",
		"hieradmo/internal/cluster.tierNode",
		"hieradmo/internal/fl.GradOracle",
		// The rule-owned state of the hooked baselines, registered through
		// the simulation driver's binding.
		"hieradmo/internal/baseline.cflState",
		"hieradmo/internal/baseline.serverMomState",
		"hieradmo/internal/baseline.mimeState",
		"hieradmo/internal/baseline.fedADCState",
	} {
		if !ckpt.cand[owner] {
			t.Errorf("ckptstate did not see %s as checkpoint-registered", owner)
		}
	}
	alloc := prog.allocFacts(pol)
	if got, want := len(alloc.roots), len(pol.HotFuncs)+1; got < want {
		t.Errorf("allocfree resolved %d hot roots, want at least %d (HotFuncs plus ≥1 Aggregator implementation)",
			got, want)
	}
	if len(alloc.missing) > 0 {
		t.Errorf("pinned hot roots missing from loaded packages: %v", alloc.missing)
	}
	// The wire codec and the snapshot encode are unexported, so nothing but
	// this table notices a rename: each must resolve to a real function.
	rooted := map[string]bool{}
	for _, root := range alloc.roots {
		rooted[root.Obj.FullName()] = true
	}
	for _, name := range []string{
		"hieradmo/internal/transport.encodeFrame",
		"(*hieradmo/internal/transport.decoder).decode",
		"(*hieradmo/internal/checkpoint.Registry).encode",
	} {
		if !rooted[name] {
			t.Errorf("allocfree did not resolve the unexported root %s", name)
		}
	}
}
