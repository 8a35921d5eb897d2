package netsim

import (
	"fmt"
	"time"

	"hieradmo/internal/rng"
	"hieradmo/internal/topology"
)

// TreeEnv is a timing environment for an N-tier deployment over a run's
// aggregation tree: per-leaf compute profiles, one aggregation compute
// profile per aggregating level, and one link profile per parent/child tier
// boundary.
type TreeEnv struct {
	// Tree is the run's resolved tree: its levels' sync periods τℓ and
	// every node's children, which may differ in number (a derived tree's
	// edges can be ragged).
	Tree *topology.Tree
	// Leaves lists the compute profile of every training leaf in leaf order
	// (leaf j of the tree is Leaves[j]).
	Leaves []DeviceProfile
	// AggCompute[i] is the per-aggregation compute cost at level i, for the
	// aggregating levels 0 (root) through Depth-2 (leaf parent).
	AggCompute []DeviceProfile
	// Links[i] is the link between a level-i aggregator and its level-i+1
	// children; Links[Depth-2] is the leaf LAN, Links[0] the root uplink.
	Links []LinkProfile
	// Seed drives all delay sampling.
	Seed uint64
}

// Validate checks the environment against its tree.
func (e *TreeEnv) Validate() error {
	if e.Tree == nil {
		return fmt.Errorf("%w: no tree", ErrEnv)
	}
	if got, want := len(e.Leaves), e.Tree.NumLeaves(); got != want {
		return fmt.Errorf("%w: %d leaf profiles for %d leaves", ErrEnv, got, want)
	}
	aggLevels := e.Tree.Depth() - 1
	if got := len(e.AggCompute); got != aggLevels {
		return fmt.Errorf("%w: %d aggregation profiles for %d aggregating levels", ErrEnv, got, aggLevels)
	}
	if got := len(e.Links); got != aggLevels {
		return fmt.Errorf("%w: %d link profiles for %d tier boundaries", ErrEnv, got, aggLevels)
	}
	return nil
}

// SimulateTree builds the timeline of a synchronous N-tier run over the
// environment's tree: leaves compute τ_{ℓ-1} local iterations in parallel,
// every aggregator waits for the slowest of its own children plus the link
// exchange and its own aggregation compute, and each tier boundary is paid
// once per parent round — so deeper trees pay the expensive root uplink
// ever more rarely, the asymmetry the depth experiment measures. The leaf
// boundary moves payload.WorkerUp/WorkerDown, every interior boundary
// payload.EdgeUp/EdgeDown. Iteration times within a root round are spread
// uniformly, exact at root boundaries and a linear interpolation in between.
// Nodes are walked depth first in child order, so a tree's draws follow its
// leaf order whether or not its nodes have equal numbers of children.
//
// A three-level tree cloud:tau=τπ/edge*L:tau=τ/worker*C is the paper's
// client–edge–cloud deployment; its timeline is pinned bit for bit to the
// one the dedicated three-tier simulator this function replaced drew. Its
// flat view (topology.Tree.Flat) is the two-tier deployment the paper's
// flat baselines run.
func SimulateTree(env *TreeEnv, payload Payload, tTotal int) (Timeline, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	tree := env.Tree
	if tTotal <= 0 {
		return nil, fmt.Errorf("%w: T=%d", ErrEnv, tTotal)
	}
	if err := tree.AlignsWith(tTotal); err != nil {
		return nil, err
	}
	r := rng.New(env.Seed).Split(0x3a3a)

	var nodeRound func(i, j int) time.Duration
	nodeRound = func(i, j int) time.Duration {
		link := env.Links[i]
		var slowest time.Duration
		for _, c := range tree.Kids[i][j] {
			var t time.Duration
			if i == tree.LeafParent() {
				// A training leaf computes over the level's period, then
				// pays its LAN exchange.
				for it := 0; it < tree.Levels[i].Tau; it++ {
					t += env.Leaves[c].Sample(r)
				}
				t += link.Transfer(payload.WorkerUp, r)
				t += link.Transfer(payload.WorkerDown, r)
			} else {
				// A child subtree runs its own rounds back to back and pays
				// this boundary's link once per parent round; siblings only
				// barrier here.
				for k := 0; k < tree.Levels[i].Tau/tree.Levels[i+1].Tau; k++ {
					t += nodeRound(i+1, c)
				}
				t += link.Transfer(payload.EdgeUp, r)
				t += link.Transfer(payload.EdgeDown, r)
			}
			slowest = max(slowest, t)
		}
		return slowest + env.AggCompute[i].Sample(r)
	}

	period := tree.Levels[0].Tau
	tl := make(Timeline, tTotal+1)
	var now time.Duration
	for p := 0; p < tTotal/period; p++ {
		intervalTime := nodeRound(0, 0)
		for i := 1; i <= period; i++ {
			tl[p*period+i] = now + intervalTime*time.Duration(i)/time.Duration(period)
		}
		now += intervalTime
	}
	return tl, nil
}

// MetroRegional is the metro-area aggregation link used between the LAN and
// the public-Internet uplink when a deployment has intermediate tiers:
// faster and steadier than the WAN, slower than the Wi-Fi LAN.
var MetroRegional = LinkProfile{Name: "metro-regional", RTT: 12 * time.Millisecond, Mbps: 120, Jitter: 0.3}

// PaperTreeTestbed assembles a TreeEnv over the §V-D testbed hardware for
// any tree: training leaves cycle the four physical worker devices in leaf
// order, the leaf parent aggregates on the MacBook edge node, the root on
// the GPU server, and any intermediate tiers on MacBook-class regional
// aggregators. The leaf boundary is the 5 GHz Wi-Fi LAN, the root boundary
// the public-Internet WAN (the direct worker↔cloud path when the tree is
// two-level), and intermediate boundaries the metro link.
func PaperTreeTestbed(tree *topology.Tree, seed uint64) *TreeEnv {
	devices := []DeviceProfile{LaptopI3, NubiaZ17s, RealmeGTNeo, RedmiK30Ultra}
	leaves := make([]DeviceProfile, tree.NumLeaves())
	for i := range leaves {
		leaves[i] = devices[i%len(devices)]
	}
	aggLevels := tree.Depth() - 1
	agg := make([]DeviceProfile, aggLevels)
	links := make([]LinkProfile, aggLevels)
	for i := 0; i < aggLevels; i++ {
		switch {
		case i == 0:
			agg[i] = GPUServerCloud
			if aggLevels == 1 {
				links[i] = WANWorkerCloud
			} else {
				links[i] = WANEdgeCloud
			}
		case i == aggLevels-1:
			agg[i] = MacBookEdge
			links[i] = WiFi5GHz
		default:
			agg[i] = MacBookEdge
			links[i] = MetroRegional
		}
	}
	return &TreeEnv{Tree: tree, Leaves: leaves, AggCompute: agg, Links: links, Seed: seed}
}
