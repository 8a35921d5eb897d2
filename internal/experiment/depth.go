package experiment

import (
	"fmt"

	"hieradmo/internal/cluster"
	"hieradmo/internal/netsim"
	"hieradmo/internal/topology"
	"hieradmo/internal/transport"
)

// DepthTopologies returns the tree specs of the depth study: 2-, 3-, and
// 4-level trees over the same eight training leaves with the same 20
// iterations of local work between root syncs, so the only thing that
// varies is how many aggregation tiers sit between a leaf and the root —
// and therefore how often the expensive WAN uplink is paid.
func DepthTopologies() []string {
	return []string{
		"cloud:tau=20/worker*8",
		"cloud:tau=20/edge*2:tau=10/worker*4",
		"cloud:tau=20/region*2:tau=10/edge*2:tau=5/worker*2",
	}
}

// RunDepth compares tree depths under the WAN cost model: each spec is
// resolved once over the config's shards, and that one tree trains the same
// logistic-on-MNIST workload through the N-tier cluster runtime
// (bit-identical across depths in inputs, differing only in aggregation
// structure), is timed on the paper-testbed tree environment, and names the
// row; the accuracy curve is replayed onto that timeline. Deeper
// trees sync leaves cheaply and often and pay the WAN rarely; the flat tree
// pays it every sync.
func RunDepth(s Scale) (*Table, error) {
	cfg, err := BuildConfig(Workload{
		Dataset: "mnist", Model: "logistic",
		Edges: []int{4, 4},
		Tau:   10, Pi: 2,
	}, s)
	if err != nil {
		return nil, fmt.Errorf("depth: %w", err)
	}
	// Time-to-target reads the curve on the simulated timeline, so the curve
	// is sampled at every root sync: the root period τπ = 20, which every
	// DepthTopologies spec shares (the cluster root records a point only
	// where EvalEvery says).
	cfg.EvalEvery = cfg.Tau * cfg.Pi
	payload := netsim.ModelPayload(cfg.Model.Dim(), true)
	tbl := &Table{
		Title: fmt.Sprintf("Depth — aggregation-tree depth vs simulated time to %.2f accuracy, logistic on MNIST, N=8",
			s.TargetAcc),
		Columns: []string{"topology", "final acc", "time-to-target", "sim total"},
		Notes: []string{
			"same leaves, same local work per root sync; only the tier structure varies",
			"delays sampled from the paper-testbed tree environment (netsim.SimulateTree)",
		},
	}
	for _, spec := range DepthTopologies() {
		topo, err := topology.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("depth %q: %w", spec, err)
		}
		tree, err := cfg.Tree(topo)
		if err != nil {
			return nil, fmt.Errorf("depth %q: %w", spec, err)
		}
		net := transport.NewMemoryNetwork()
		res, err := cluster.Run(cfg, net, cluster.Options{Adaptive: true, Tree: tree})
		if err != nil {
			return nil, fmt.Errorf("depth %q: %w", spec, err)
		}
		tl, err := netsim.SimulateTree(netsim.PaperTreeTestbed(tree, s.Seed+99), payload, cfg.T)
		if err != nil {
			return nil, fmt.Errorf("depth %q: %w", spec, err)
		}
		curve := make([]netsim.CurvePoint, len(res.Curve))
		for j, p := range res.Curve {
			curve[j] = netsim.CurvePoint{Iter: p.Iter, Acc: p.TestAcc}
		}
		cell := "not reached"
		if d, ok := netsim.TimeToAccuracy(tl, curve, s.TargetAcc); ok {
			cell = Dur(d)
		}
		tbl.AddRow(fmt.Sprintf("depth-%d", tree.Depth()),
			tree.String(), Pct(res.FinalAcc), cell, Dur(tl.Total()))
	}
	return tbl, nil
}
