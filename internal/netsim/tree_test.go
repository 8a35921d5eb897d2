package netsim

import (
	"testing"
	"time"

	"hieradmo/internal/rng"
	"hieradmo/internal/topology"
)

// simTopo resolves a spec's tree over leaves of one sample each: timing
// reads the tree's shape, never its weights.
func simTopo(t *testing.T, spec string) *topology.Tree {
	t.Helper()
	topo, err := topology.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	leaves := 1
	for _, lv := range topo.Levels {
		leaves *= lv.Fanout
	}
	sizes := make([]int, leaves)
	for j := range sizes {
		sizes[j] = 1
	}
	tree, err := topo.Resolve(sizes)
	if err != nil {
		t.Fatalf("Resolve(%q): %v", spec, err)
	}
	return tree
}

// TestSimulateTreeMatchesThreeTier pins the tree simulator's three-tier
// case: a three-level topology over the testbed hardware must reproduce,
// bit for bit, the timeline the dedicated three-tier simulator drew before
// SimulateTree replaced it — same draw sequence, same barriers, same
// spreading.
func TestSimulateTreeMatchesThreeTier(t *testing.T) {
	env := PaperTreeTestbed(simTopo(t, "cloud:tau=6/edge*2:tau=2/worker*2"), 11)
	tl, err := SimulateTree(env, ModelPayload(104, true), 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != len(threeTierTimeline) {
		t.Fatalf("tree timeline has %d points, the pinned three-tier timeline %d", len(tl), len(threeTierTimeline))
	}
	for i, want := range threeTierTimeline {
		if tl[i] != want {
			t.Fatalf("timeline[%d] = %d ns, pinned three-tier timeline %d ns", i, tl[i], want)
		}
	}
}

// threeTierTimeline is the three-tier timeline of the scenario above
// (two edges of two testbed workers, seed 11, ModelPayload(104, true),
// T=24, τ=2, π=3) in nanoseconds, recorded from the dedicated three-tier
// simulator SimulateTree replaced.
var threeTierTimeline = [...]time.Duration{
	0, 128098367, 256196734, 384295102, 512393469,
	640491836, 768590204, 888020417, 1007450631, 1126880845,
	1246311058, 1365741272, 1485171486, 1594869092, 1704566699,
	1814264305, 1923961912, 2033659518, 2143357125, 2264695989,
	2386034853, 2507373717, 2628712581, 2750051445, 2871390309,
}

// TestSimulateTreeRagged times the ragged tree a run derives from edges of
// three, one and two workers. Every leaf parent waits on its own cohort, so
// the timeline is the one a flat three-tier walk over those cohorts draws,
// leaf by leaf in leaf order; grouping the same six leaves into edges of
// two draws another.
func TestSimulateTreeRagged(t *testing.T) {
	const tau, pi, T = 2, 3, 24
	cohorts := []int{3, 1, 2}
	tree, err := topology.Derive(tau, pi, cohorts, []int{1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	env := PaperTreeTestbed(tree, 5)
	payload := ModelPayload(104, true)
	tl, err := SimulateTree(env, payload, T)
	if err != nil {
		t.Fatal(err)
	}
	want := threeTier(env, cohorts, payload, tau, pi, T)
	for i := range want {
		if tl[i] != want[i] {
			t.Fatalf("timeline[%d] = %v, the cohorts' own three-tier walk %v", i, tl[i], want[i])
		}
	}
	if blind := threeTier(env, []int{2, 2, 2}, payload, tau, pi, T); blind.Total() == tl.Total() {
		t.Fatalf("edges of two time the ragged tree's %v too: the check cannot tell the cohorts apart", tl.Total())
	}
	// The flat walk is the pinned three-tier simulator's on a uniform tree.
	pinned := threeTier(PaperTreeTestbed(simTopo(t, "cloud:tau=6/edge*2:tau=2/worker*2"), 11), []int{2, 2}, payload, tau, pi, T)
	if pinned.Total() != threeTierTimeline[T] {
		t.Fatalf("the flat walk ends the pinned scenario at %v, the pinned timeline at %v", pinned.Total(), threeTierTimeline[T])
	}
}

// threeTier is the walk SimulateTree makes of a three-level tree, written
// out flat: edge ℓ's workers are the next cohorts[ℓ] leaves, each edge round
// waits on the slowest of them, and each root round on the slowest edge
// after its π rounds and its WAN exchange.
func threeTier(env *TreeEnv, cohorts []int, p Payload, tau, pi, T int) Timeline {
	r := rng.New(env.Seed).Split(0x3a3a)
	wan, lan := env.Links[0], env.Links[1]
	tl := make(Timeline, T+1)
	var now time.Duration
	for round := 0; round < T/(tau*pi); round++ {
		var slowestEdge time.Duration
		first := 0
		for _, n := range cohorts {
			var edge time.Duration
			for k := 0; k < pi; k++ {
				var slowest time.Duration
				for w := first; w < first+n; w++ {
					var d time.Duration
					for it := 0; it < tau; it++ {
						d += env.Leaves[w].Sample(r)
					}
					d += lan.Transfer(p.WorkerUp, r)
					d += lan.Transfer(p.WorkerDown, r)
					slowest = max(slowest, d)
				}
				edge += slowest + env.AggCompute[1].Sample(r)
			}
			edge += wan.Transfer(p.EdgeUp, r)
			edge += wan.Transfer(p.EdgeDown, r)
			slowestEdge = max(slowestEdge, edge)
			first += n
		}
		interval := slowestEdge + env.AggCompute[0].Sample(r)
		for i := 1; i <= tau*pi; i++ {
			tl[round*tau*pi+i] = now + interval*time.Duration(i)/time.Duration(tau*pi)
		}
		now += interval
	}
	return tl
}

// TestSimulateTreeDeterministic checks that reruns of a four-level
// environment draw identical timelines.
func TestSimulateTreeDeterministic(t *testing.T) {
	topo := simTopo(t, "cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2")
	payload := ModelPayload(104, true)
	a, err := SimulateTree(PaperTreeTestbed(topo, 7), payload, 48)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTree(PaperTreeTestbed(topo, 7), payload, 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timeline[%d]: %v != %v across reruns", i, a[i], b[i])
		}
	}
	if a.Total() <= 0 {
		t.Fatal("four-level run took no simulated time")
	}
}

// TestSimulateTreeDepthAmortizesWAN is the asymmetry the depth experiment
// measures: with the same 8 leaves and horizon, a deeper tree pays the
// expensive root uplink less often per iteration, so inserting a regional
// tier between LAN and WAN must not slow the run down at equal local work.
func TestSimulateTreeDepthAmortizesWAN(t *testing.T) {
	payload := ModelPayload(104, true)
	const T = 48
	flat, err := SimulateTree(PaperTreeTestbed(simTopo(t, "cloud:tau=2/worker*8"), 3), payload, T)
	if err != nil {
		t.Fatal(err)
	}
	three, err := SimulateTree(PaperTreeTestbed(simTopo(t, "cloud:tau=8/edge*4:tau=2/worker*2"), 3), payload, T)
	if err != nil {
		t.Fatal(err)
	}
	if three.Total() >= flat.Total() {
		t.Errorf("three-level run (%v) not faster than two-level (%v) despite WAN amortization",
			three.Total(), flat.Total())
	}
}

// TestSimulateTreeValidation pins the environment error paths.
func TestSimulateTreeValidation(t *testing.T) {
	topo := simTopo(t, "cloud:tau=4/edge*2:tau=2/worker*2")
	payload := ModelPayload(104, true)
	good := PaperTreeTestbed(topo, 1)
	if _, err := SimulateTree(good, payload, 23); err == nil {
		t.Error("misaligned horizon accepted")
	}
	short := *good
	short.Leaves = short.Leaves[:2]
	if _, err := SimulateTree(&short, payload, 24); err == nil {
		t.Error("missing leaf profiles accepted")
	}
	unlinked := *good
	unlinked.Links = unlinked.Links[:1]
	if _, err := SimulateTree(&unlinked, payload, 24); err == nil {
		t.Error("missing link profiles accepted")
	}
}
