package baseline

import (
	"testing"

	"hieradmo/internal/fl"
)

// TestBaselineIterationAllocFree is the baselines' twin of core's
// TestKernelAllocFree: on the shared driver a run's weights, cohorts and
// state are built once, so the marginal iteration — aggregation rounds
// included — allocates nothing. Measured as a run of 2T iterations against a
// run of T with evaluation off and no sink, sequentially (a goroutine pool
// allocates per fan-out by design); the hand-written loops failed this by one
// weights slice per sync and one closure per iteration.
func TestBaselineIterationAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop workspaces at random")
	}
	for _, alg := range []fl.Algorithm{NewFedAvg(), NewFedNAG(), NewMime()} {
		allocs := func(iterations int) float64 {
			cfg := buildConfig(t, 41)
			cfg.T = iterations
			cfg.EvalEvery = 0
			cfg.Workers = 1
			return testing.AllocsPerRun(5, func() {
				if _, err := alg.Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(40), allocs(80); long != short {
			t.Errorf("%s: %v allocations over 40 iterations, %v over 80: %v per extra iteration",
				alg.Name(), short, long, (long-short)/40)
		}
	}
}
