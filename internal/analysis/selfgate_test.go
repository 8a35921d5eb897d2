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
	pol := DefaultPolicy(module)
	for _, d := range Run(pkgs, Checkers(), pol) {
		t.Errorf("flvet finding: %s", d)
	}

	// A clean result only means something if ckptstate engaged: the
	// registry's primitives resolved, fl.Checkpointer forwards to them, and
	// the kernel's and the drivers' state structs are seen as registered. A
	// rename that loses any of them would leave the gate vacuous.
	ckpt := NewProgram(pkgs).ckptFacts(pol)
	if len(ckpt.prims) != len(registrationKinds) {
		t.Errorf("ckptstate resolved %d registration primitives, want %d (is internal/checkpoint.Registry intact?)",
			len(ckpt.prims), len(registrationKinds))
	}
	if len(ckpt.fwd) == 0 {
		t.Error("ckptstate found no forwarders; fl.Checkpointer should forward to the registry")
	}
	for _, owner := range []string{
		// The kernel's state, registered by both drivers, and the cluster
		// nodes' own fields.
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
}
