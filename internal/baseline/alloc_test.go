package baseline

import (
	"testing"

	"hieradmo/internal/core"
	"hieradmo/internal/fl"
)

// TestBaselineIterationAllocFree is the baselines' twin of core's
// TestKernelAllocFree: on the shared driver a run's weights, cohorts and
// state are built once, so the marginal iteration — aggregation rounds
// included — allocates nothing. Measured as a run of 2T iterations against a
// run of T with evaluation off and no sink, sequentially (a goroutine pool
// allocates per fan-out by design); the hand-written loops failed this by one
// weights slice per sync and one closure per iteration. The HierAdMo rows
// cover the driver's own uplink: the quantized round trip and the partial
// participation draw.
func TestBaselineIterationAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop workspaces at random")
	}
	for _, row := range []struct {
		name string
		alg  fl.Algorithm
	}{
		{"FedAvg", NewFedAvg()},
		{"FedNAG", NewFedNAG()},
		{"Mime", NewMime()},
		{"HierAdMo/quant4", core.New(core.WithUplinkQuantization(4))},
		{"HierAdMo/participation0.5+quant4", core.New(core.WithParticipation(0.5), core.WithUplinkQuantization(4))},
	} {
		t.Run(row.name, func(t *testing.T) {
			allocs := func(iterations int) float64 {
				cfg := buildConfig(t, 41)
				cfg.T = iterations
				cfg.EvalEvery = 0
				cfg.Workers = 1
				return testing.AllocsPerRun(5, func() {
					if _, err := row.alg.Run(cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			if short, long := allocs(40), allocs(80); long != short {
				t.Errorf("%v allocations over 40 iterations, %v over 80: %v per extra iteration",
					short, long, (long-short)/40)
			}
		})
	}
}
