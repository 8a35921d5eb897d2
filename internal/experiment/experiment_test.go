package experiment

import (
	"fmt"
	"strings"
	"testing"

	"hieradmo/internal/core"
)

// tinyScale keeps experiment integration tests fast while exercising every
// code path.
func tinyScale() Scale {
	return Scale{
		TrainSamples: 300,
		TestSamples:  100,
		TConvex:      40,
		TNonConvex:   40,
		BatchSize:    4,
		EvalEvery:    20,
		EvalSamples:  60,
		TargetAcc:    0.5,
		Seed:         3,
	}
}

func TestScaleValidate(t *testing.T) {
	if err := BenchScale().Validate(); err != nil {
		t.Errorf("BenchScale invalid: %v", err)
	}
	if err := DefaultScale().Validate(); err != nil {
		t.Errorf("DefaultScale invalid: %v", err)
	}
	bad := BenchScale()
	bad.TrainSamples = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero train samples")
	}
	bad = BenchScale()
	bad.TargetAcc = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("accepted target accuracy > 1")
	}
	bad = BenchScale()
	bad.BatchSize = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative batch")
	}
	bad = BenchScale()
	bad.TConvex = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero budget")
	}
}

func TestBuildConfigDefaults(t *testing.T) {
	cfg, err := BuildConfig(Workload{Dataset: "mnist", Model: "logistic"}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tau != 10 || cfg.Pi != 2 {
		t.Errorf("convex defaults tau=%d pi=%d, want 10/2", cfg.Tau, cfg.Pi)
	}
	if cfg.T%(cfg.Tau*cfg.Pi) != 0 {
		t.Errorf("T=%d not rounded to multiple of %d", cfg.T, cfg.Tau*cfg.Pi)
	}
	if cfg.NumWorkers() != 4 || cfg.NumEdges() != 2 {
		t.Errorf("default topology %d workers / %d edges", cfg.NumWorkers(), cfg.NumEdges())
	}
	cfg2, err := BuildConfig(Workload{Dataset: "mnist", Model: "cnn"}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Tau != 20 {
		t.Errorf("non-convex default tau = %d, want 20", cfg2.Tau)
	}
}

func TestBuildConfigErrors(t *testing.T) {
	s := tinyScale()
	if _, err := BuildConfig(Workload{Dataset: "nope", Model: "cnn"}, s); err == nil {
		t.Error("accepted unknown dataset")
	}
	if _, err := BuildConfig(Workload{Dataset: "mnist", Model: "nope"}, s); err == nil {
		t.Error("accepted unknown model")
	}
	bad := s
	bad.BatchSize = 0
	if _, err := BuildConfig(Workload{Dataset: "mnist", Model: "cnn"}, bad); err == nil {
		t.Error("accepted invalid scale")
	}
}

func TestBuildConfigNonIID(t *testing.T) {
	cfg, err := BuildConfig(Workload{
		Dataset: "mnist", Model: "logistic", ClassesPerWorker: 3,
	}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, edge := range cfg.Edges {
		for _, shard := range edge {
			if got := shard.ClassesPresent(); got > 3 {
				t.Errorf("worker shard holds %d classes, want <= 3", got)
			}
		}
	}
}

func TestAllAlgorithmsRoster(t *testing.T) {
	algos := AllAlgorithms()
	if len(algos) != 11 {
		t.Fatalf("%d algorithms, want the paper's 11", len(algos))
	}
	if algos[0].Name() != "HierAdMo" {
		t.Errorf("first algorithm %q, want HierAdMo", algos[0].Name())
	}
	seen := make(map[string]bool, len(algos))
	for _, a := range algos {
		if seen[a.Name()] {
			t.Errorf("duplicate algorithm %q", a.Name())
		}
		seen[a.Name()] = true
	}
}

// rowFacts is what Fig. 2(h)/(l) reads from each algorithm's rule row: the
// tier count (which netsim timeline) and whether momentum travels (which
// payload). The values are the classification the eleven algorithms have
// always been timed with.
var rowFacts = map[string]struct {
	tiers    int
	momentum bool
}{
	"HierAdMo": {3, true}, "HierAdMo-R": {3, true}, "HierFAVG": {3, false}, "CFL": {3, false},
	"FastSlowMo": {2, true}, "FedADC": {2, true}, "FedMom": {2, false}, "SlowMo": {2, false},
	"FedNAG": {2, true}, "Mime": {2, true}, "FedAvg": {2, false},
}

// TestAlgorithmsResolveToRows: every algorithm of the roster is a rule row
// with known facts. An algorithm added to AllAlgorithms() without a row, or
// without an entry above, fails here instead of being timed as a two-tier,
// momentum-free run by default.
func TestAlgorithmsResolveToRows(t *testing.T) {
	for _, alg := range AllAlgorithms() {
		row, ok := core.RuleOf(alg)
		if !ok {
			t.Errorf("%s does not resolve to a rule row", alg.Name())
			continue
		}
		want, known := rowFacts[alg.Name()]
		if !known {
			t.Errorf("%s has no expected tier count and payload", alg.Name())
			continue
		}
		if row.Tiers() != want.tiers || row.ShipsMomentum != want.momentum {
			t.Errorf("%s: row says %d tiers, momentum traffic %v; want %d, %v",
				alg.Name(), row.Tiers(), row.ShipsMomentum, want.tiers, want.momentum)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("row1", "1", "2")
	tbl.AddRow("longer-row", "3", "4")
	out := tbl.Render()
	for _, want := range []string{"demo", "row1", "longer-row", "a note", "bb"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunTableIISubsetSmall(t *testing.T) {
	// One convex combo, full 11-algorithm column, tiny scale.
	tbl, err := RunTableIISubset(tinyScale(), []Combo{{Label: "Logistic/MNIST", Dataset: "mnist", Model: "logistic"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 11 {
		t.Fatalf("%d rows, want 11", len(tbl.Rows))
	}
	if tbl.Rows[0].Label != "HierAdMo" {
		t.Errorf("first row %q", tbl.Rows[0].Label)
	}
	for _, r := range tbl.Rows {
		if len(r.Cells) != 1 || r.Cells[0] == "" {
			t.Errorf("row %s malformed: %v", r.Label, r.Cells)
		}
	}
}

func TestRunFig2TauSweepSmall(t *testing.T) {
	tbl, err := RunFig2TauSweep(tinyScale(), []int{2, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
}

func TestRunFig2PiSweepSmall(t *testing.T) {
	tbl, err := RunFig2PiSweep(tinyScale(), 2, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
}

func TestRunFig2JointSweepSmall(t *testing.T) {
	tbl, err := RunFig2JointSweep(tinyScale(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
}

func TestRunFig2NonIIDSmall(t *testing.T) {
	tbl, err := RunFig2NonIID(tinyScale(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 11 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	if _, err := RunFig2NonIID(tinyScale(), 0); err == nil {
		t.Error("accepted x=0")
	}
}

func TestRunFig2AdaptiveGammaSmall(t *testing.T) {
	tbl, err := RunFig2AdaptiveGamma(tinyScale(), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// Nine fixed settings plus the adaptive row.
	if len(tbl.Rows) != 10 {
		t.Fatalf("%d rows, want 10", len(tbl.Rows))
	}
	if tbl.Rows[9].Label != "adaptive" {
		t.Errorf("last row %q, want adaptive", tbl.Rows[9].Label)
	}
	if _, err := RunFig2AdaptiveGamma(tinyScale(), 1.2); err == nil {
		t.Error("accepted gamma > 1")
	}
}

func TestRunFig2TrainingTimeSmall(t *testing.T) {
	tbl, err := RunFig2TrainingTime(tinyScale(), TimingSetting1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 11 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if len(r.Cells) != 4 {
			t.Errorf("row %s has %d cells", r.Label, len(r.Cells))
		}
		if want := fmt.Sprintf("%d-tier", rowFacts[r.Label].tiers); r.Cells[0] != want {
			t.Errorf("row %s tier cell %q, want %q", r.Label, r.Cells[0], want)
		}
	}
	if _, err := RunFig2TrainingTime(tinyScale(), TimingSetting(99)); err == nil {
		t.Error("accepted unknown setting")
	}
}

func TestAblationsSmall(t *testing.T) {
	tbl, err := RunAblationAdaptSignal(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("signal ablation rows = %d", len(tbl.Rows))
	}
	tbl, err = RunAblationClampCeiling(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("clamp ablation rows = %d", len(tbl.Rows))
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	for _, id := range ExperimentIDs() {
		if _, ok := reg[id]; !ok {
			t.Errorf("registry missing %q", id)
		}
	}
	if len(reg) != len(ExperimentIDs()) {
		t.Errorf("registry has %d entries, ids list %d", len(reg), len(ExperimentIDs()))
	}
}

func TestSpeedupOverBest(t *testing.T) {
	got := SpeedupOverBest([]float64{100, 200, 0, 50})
	want := []float64{2, 4, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("speedup[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if out := SpeedupOverBest([]float64{0, 0}); out[0] != 0 || out[1] != 0 {
		t.Error("all-unreached speedups should be zero")
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "b,with comma"},
	}
	tbl.AddRow("row \"quoted\"", "1", "2")
	out := tbl.RenderCSV()
	if !strings.Contains(out, `"b,with comma"`) {
		t.Errorf("comma column not escaped: %q", out)
	}
	if !strings.Contains(out, `"row ""quoted"""`) {
		t.Errorf("quote not escaped: %q", out)
	}
	if !strings.HasPrefix(out, "label,") {
		t.Errorf("missing header: %q", out)
	}
}
