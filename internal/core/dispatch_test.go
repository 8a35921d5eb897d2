package core_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"hieradmo/internal/baseline"
	"hieradmo/internal/checkpoint/ckpttest"
	"hieradmo/internal/core"
	"hieradmo/internal/fl"
)

// TestDispatchWithoutAVX2 reruns both simulation golden files with the vector
// bodies switched off — every element of Step and of the mean on the Go
// loops, as on a CPU without AVX2 — so both bodies are pinned to the same
// recorded bits: TestGoldenSimulation and TestGoldenBaselines run whatever the
// CPU selects. One pool size: pool invariance is theirs to hold.
func TestDispatchWithoutAVX2(t *testing.T) {
	defer core.SetVectorBodies(false)()
	t.Run("golden_sim", core.CheckGoldenSimulation)
	t.Run("golden_baselines", checkGoldenBaselines)
}

// baselineDigest is the part of a golden_baselines.json digest the arithmetic
// decides; the file also counts trace events, which no arithmetic body moves.
type baselineDigest struct {
	Params, FinalAcc, FinalLoss string
	Curve                       []string
}

// checkGoldenBaselines runs internal/baseline's golden scenarios — every
// baseline on its base, ragged, clipped and resumed shape — at pool size one.
func checkGoldenBaselines(t *testing.T) {
	raw, err := os.ReadFile("../baseline/testdata/golden_baselines.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Scenarios map[string]baselineDigest }
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name   string
		edges  []int
		clip   float64
		resume bool
	}{
		{"base", []int{2, 2}, 0, false},
		{"ragged", []int{3, 1, 2}, 0, false},
		{"clip", []int{2, 2}, 1, false},
		{"resume", []int{3, 1, 2}, 0, true},
	}
	algs := []fl.Algorithm{
		baseline.NewHierFAVG(), baseline.NewCFL(), baseline.NewFedAvg(),
		baseline.NewFedNAG(), baseline.NewFedMom(), baseline.NewSlowMo(),
		baseline.NewMime(), baseline.NewFastSlowMo(), baseline.NewFedADC(),
	}
	if n := len(algs) * len(shapes); len(file.Scenarios) != n {
		t.Errorf("golden file holds %d scenarios, the table %d", len(file.Scenarios), n)
	}
	for _, alg := range algs {
		for _, sh := range shapes {
			name := alg.Name() + "/" + sh.name
			want, ok := file.Scenarios[name]
			if !ok {
				t.Errorf("%s: no golden digest recorded", name)
				continue
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				run := func(dir string) baselineDigest {
					cfg := core.BuildConfig(t, sh.edges, 23)
					cfg.T, cfg.EvalEvery, cfg.Workers = 48, 8, 1
					cfg.ClipNorm, cfg.CheckpointDir = sh.clip, dir
					var hash func() string
					cfg.Model, hash = core.Capture(cfg.Model)
					res, err := alg.Run(cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					d := baselineDigest{Params: hash(), FinalAcc: core.Bits(res.FinalAcc), FinalLoss: core.Bits(res.FinalLoss)}
					for _, p := range res.Curve {
						d.Curve = append(d.Curve, fmt.Sprintf("%d:%s:%s", p.Iter, core.Bits(p.TestAcc), core.Bits(p.TrainLoss)))
					}
					return d
				}
				dir := ""
				if sh.resume {
					dir = t.TempDir()
					run(dir)
					ckpttest.DeleteNewest(t, dir)
				}
				if got := run(dir); !reflect.DeepEqual(got, want) {
					t.Errorf("%s diverged from the recorded baseline\n got: %+v\nwant: %+v", name, got, want)
				}
			})
		}
	}
}
