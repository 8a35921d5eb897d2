package main

import (
	"strings"
	"testing"
)

// TestListCheckers pins the suite the -list flag advertises, in order.
func TestListCheckers(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("flvet -list exited %d: %s", code, errOut.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "detwall maporder goexec wirealloc nilsink ckptstate"; got != want {
		t.Errorf("-list names %s, want %s", got, want)
	}
}

// TestUnknownFlag exercises the usage-error path.
func TestUnknownFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-frobnicate"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown flag exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown flag") {
		t.Errorf("stderr = %q, want an unknown-flag message", errOut.String())
	}
}

// TestModuleIsClean runs flvet over the whole module exactly as make lint
// does and requires exit 0 with no output. TestModuleSelfGate in
// internal/analysis checks the same tree through the library and also that
// ckptstate engaged; this one covers the command's own path.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire module")
	}
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 0 {
		t.Fatalf("flvet ./... exited %d:\n%s%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean tree still printed findings:\n%s", out.String())
	}
}
