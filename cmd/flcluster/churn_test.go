package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hieradmo/internal/fl"
)

func TestRunChurnFlags(t *testing.T) {
	resPath := filepath.Join(t.TempDir(), "res.json")
	err := run([]string{
		"-transport", "memory",
		"-model", "logistic",
		"-classes", "2",
		"-churn-plan", "join:worker-0-1@3,leave:worker-1-0@30",
		"-retier-every", "4",
		"-migration", "rescale",
		"-save-result", resPath,
	}, nil)
	if err != nil {
		t.Fatalf("churn run: %v", err)
	}
	raw, err := os.ReadFile(resPath)
	if err != nil {
		t.Fatal(err)
	}
	var res fl.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Membership == nil {
		t.Fatal("saved result carries no membership report")
	}
	if res.Membership.Joins != 1 || res.Membership.Leaves != 1 {
		t.Errorf("membership report %+v, want 1 join and 1 leave", res.Membership)
	}
	if res.Membership.MigrationPolicy != "rescale" {
		t.Errorf("migration policy %q, want rescale", res.Membership.MigrationPolicy)
	}
}

func TestRunChurnPlanFromFile(t *testing.T) {
	planPath := filepath.Join(t.TempDir(), "plan.trace")
	trace := "# churn trace\njoin worker-0-1 @3\nleave worker-1-0 @30\n"
	if err := os.WriteFile(planPath, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	plan, err := loadChurnPlan(planPath)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := loadChurnPlan("join:worker-0-1@3,leave:worker-1-0@30")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Signature() != inline.Signature() {
		t.Errorf("trace file parsed to %q, inline spec to %q", plan.Signature(), inline.Signature())
	}
}

func TestRunBadMigrationPolicy(t *testing.T) {
	if err := run([]string{"-migration", "teleport"}, nil); err == nil {
		t.Error("unknown migration policy accepted")
	}
}

func TestRunBadChurnSpec(t *testing.T) {
	if err := run([]string{"-churn-plan", "defect:worker-0-1@3"}, nil); err == nil {
		t.Error("malformed churn spec accepted")
	}
}
