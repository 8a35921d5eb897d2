package cluster

import (
	"math"
	"testing"

	"hieradmo/internal/allocprobe"
	"hieradmo/internal/transport"
)

// TestClusterRoundAllocs pins the lean wire path where go test sees it: the
// marginal cost of a leaf round — a run of 2T iterations minus a run of T,
// per extra leaf-parent round — stays under a small budget on both
// transports, and repeats from run to run (the benchmark's allocation
// metrics carry 5 % bounds, so a wire path whose garbage depended on
// scheduling or on the collector would make every comparison unresolvable).
// With gob frames and cloned messages a leaf round cost hundreds of objects
// and several model-sized buffers.
func TestClusterRoundAllocs(t *testing.T) {
	// Budgets per extra leaf round of the 2×2 test hierarchy (four leaf
	// reports, four updates, and every second round two parent syncs and
	// a root evaluation). Measured: within ±0.2 objects and ±50 bytes of
	// zero — what is left is the root's curve growing and runtime noise.
	roundAllocs(t, 1.0, 256, func(*testing.T) Options { return Options{Adaptive: true} })
}

// TestClusterCkptRoundAllocs is the same pin with per-node snapshots on: a
// leaf round then also saves every node (four leaves, the two edges, and
// the root on its rounds), each straight from its live vectors, through the
// slot file the node holds open, over the older of its two generations. A
// save opens nothing, so the budget is TestClusterRoundAllocs' own;
// reopening the slot file per save cost three objects a save (≈ 20 a round),
// and with a State copied per snapshot, bytes appended one value at a time
// and a temp file created, renamed, re-listed and pruned, the same round
// cost ≈ 560 objects and 145 kB.
func TestClusterCkptRoundAllocs(t *testing.T) {
	roundAllocs(t, 1.0, 256, func(t *testing.T) Options {
		return Options{Adaptive: true, CheckpointDir: t.TempDir()}
	})
}

// roundAllocs measures the marginal allocations of a leaf round on both
// transports against the given budgets, with options built per run. It
// counts the run's own allocations (allocprobe.Own), not what the runtime,
// the TCP poller or the test binary allocate beside it, so a whole run
// repeats to within the 1 % + noiseObjects / noiseBytes it is held to.
func roundAllocs(t *testing.T, maxObjects, maxBytes float64, options func(*testing.T) Options) {
	if deadlineScale != 1 {
		t.Skip("the race detector's own allocations swamp the counts")
	}
	const (
		noiseObjects = 24
		noiseBytes   = 16 << 10
		baseT        = 240
	)
	for _, nw := range []struct {
		name string
		new  func() Network
	}{
		{"memory", func() Network { return transport.NewMemoryNetwork() }},
		{"tcp", func() Network { return transport.NewTCPNetwork() }},
	} {
		t.Run(nw.name, func(t *testing.T) {
			// cost runs the cluster for T iterations and returns what the
			// run allocated.
			cost := func(T int) (objects, bytes float64) {
				cfg := buildConfig(t, 31, 2)
				cfg.T = T
				opts := options(t)
				var err error
				objects, bytes = allocprobe.Own(func() { _, err = Run(cfg, nw.new(), opts) })
				if err != nil {
					t.Fatal(err)
				}
				return objects, bytes
			}
			cost(baseT) // first use of the process: lazy runtime and net set-up
			o1, b1 := cost(baseT)
			o2, b2 := cost(2 * baseT)
			o2again, b2again := cost(2 * baseT)
			rounds := float64(baseT / 2) // τ = 2
			objects, bytes := (o2-o1)/rounds, (b2-b1)/rounds
			t.Logf("per extra leaf round: %.2f objects, %.0f bytes; whole 2T run: %.0f objects, %.0f bytes, rerun %.0f, %.0f",
				objects, bytes, o2, b2, o2again, b2again)
			if objects > maxObjects || bytes > maxBytes {
				t.Errorf("a leaf round allocates %.2f objects / %.0f bytes, budget %v / %v", objects, bytes, maxObjects, maxBytes)
			}
			// On this toy model (104 parameters) a whole run is a few hundred
			// to a couple of thousand objects, so the handful that still
			// depends on goroutine scheduling (a dial that had to retry, a
			// directory listing that raced another node's first save, an
			// error from a connection closed mid-read) gets an absolute
			// allowance next to the 1 %; at the benchmark's model size it is
			// below 0.1 %.
			if math.Abs(o2-o2again) > 0.01*o2+noiseObjects || math.Abs(b2-b2again) > 0.01*b2+noiseBytes {
				t.Errorf("two runs of one config disagree by more than 1 %%: %.0f objects / %.0f bytes, then %.0f / %.0f",
					o2, b2, o2again, b2again)
			}
		})
	}
}
