package experiment

import (
	"fmt"

	"hieradmo/internal/cluster"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/topology"
	"hieradmo/internal/transport"
)

// churnColumns reports accuracy and communication cost side by side: churn
// changes both the learning trajectory and how much traffic the hierarchy
// moves, so the table keeps them in one row per variant.
var churnColumns = []string{"acc@50%", "final", "messages", "payload-KB"}

// ChurnTopology is the churn study's setup: six workers over two edges,
// large enough that one leave never collapses a cohort.
func ChurnTopology() []int { return []int{3, 3} }

// ChurnPlan draws the study's seeded churn trace over the tree's training
// leaves: one late join in the first half of the run and one permanent leave
// in the second, a pure function of (seed, tree, K).
func ChurnPlan(seed uint64, tree *topology.Tree, k int) (membership.Plan, error) {
	ids := make([]string, tree.NumLeaves())
	for j := range ids {
		ids[j] = tree.ID(tree.Depth()-1, j)
	}
	return membership.Generate(membership.GenSpec{Seed: seed, Joins: 1, Leaves: 1}, ids, k)
}

// RunChurn compares the static hierarchy against the same run under a
// seeded churn trace (join + leave) with cloud re-tiering every other sync,
// one row per γℓ migration policy. Accuracy shows what churn costs the
// model; the traffic columns what the membership protocol costs the wire.
func RunChurn(s Scale) (*Table, error) {
	cfg, err := BuildConfig(Workload{
		Dataset: "mnist", Model: "logistic",
		Edges:            ChurnTopology(),
		ClassesPerWorker: 2,
		Tau:              5, Pi: 2,
	}, s)
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	// acc@50% reads the curve at T/2, which the root can record only at a
	// sync: sample the curve at every one, the root period τπ.
	cfg.EvalEvery = cfg.Tau * cfg.Pi
	tree, err := cfg.Tree(nil)
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}
	plan, err := ChurnPlan(s.Seed, tree, cfg.T/cfg.Tau)
	if err != nil {
		return nil, fmt.Errorf("churn: %w", err)
	}

	run := func(tree *topology.Tree) (*fl.Result, int64, int64, error) {
		net := transport.NewCountingNetwork(transport.NewMemoryNetwork())
		defer net.Close()
		res, err := cluster.Run(cfg, net, cluster.Options{Adaptive: true, Tree: tree})
		if err != nil {
			return nil, 0, 0, err
		}
		msgs, bytes := net.Traffic()
		return res, msgs, bytes, nil
	}
	cells := func(res *fl.Result, msgs, bytes int64) []string {
		return []string{
			Pct(res.AccuracyAt(cfg.T / 2)),
			Pct(res.FinalAcc),
			fmt.Sprintf("%d", msgs),
			fmt.Sprintf("%.1f", float64(bytes)/1024),
		}
	}

	tbl := &Table{
		Title: fmt.Sprintf("Churn — static vs seeded trace %q with re-tiering every 2 syncs, logistic on MNIST, N=6 L=2",
			plan.Signature()),
		Columns: churnColumns,
	}
	res, msgs, bytes, err := run(tree)
	if err != nil {
		return nil, fmt.Errorf("churn static: %w", err)
	}
	tbl.AddRow("static", cells(res, msgs, bytes)...)

	for _, pol := range []membership.MigrationPolicy{
		membership.MigrateZero, membership.MigrateCarry, membership.MigrateRescale,
	} {
		churned, err := tree.WithMembership(plan, cfg.LeafStats(), cfg.T, 2, pol)
		if err != nil {
			return nil, fmt.Errorf("churn %s: %w", pol, err)
		}
		res, msgs, bytes, err := run(churned)
		if err != nil {
			return nil, fmt.Errorf("churn %s: %w", pol, err)
		}
		tbl.AddRow("churn/"+pol.String(), cells(res, msgs, bytes)...)
	}
	return tbl, nil
}
