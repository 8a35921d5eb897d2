package experiment

import (
	"fmt"
	"math"

	"hieradmo/internal/cluster"
	"hieradmo/internal/fl"
	"hieradmo/internal/robust"
	"hieradmo/internal/topology"
	"hieradmo/internal/transport"
)

// byzantineColumns sweeps the attacker fraction left to right; the last
// column shows how many reports the robust rule actually excluded under
// the heaviest attack.
var byzantineColumns = []string{"clean", "20% flipped", "40% flipped", "rejected@40%"}

// ByzantineTopology is the robustness study's setup: ten workers over two
// edges, so 20% and 40% attacker fractions land as one and two attackers
// per five-worker cohort — an honest per-edge majority in both cases,
// which is the regime robust aggregation can defend.
func ByzantineTopology() []int { return []int{5, 5} }

// ByzantinePlan builds a sign-flip attack plan covering the given fraction
// of the tree's training leaves for the whole run, under the tree's own node
// IDs. Attackers are assigned round-robin across the leaf parents
// (worker-0-0, worker-1-0, worker-0-1, ... on the derived tree) so no cohort
// is majority-attacked before the others; a zero fraction returns nil (no
// plan).
func ByzantinePlan(frac float64, tree *topology.Tree, seed uint64) *robust.AttackPlan {
	count := int(math.Round(frac * float64(tree.NumLeaves())))
	if count <= 0 {
		return nil
	}
	lp := tree.LeafParent()
	var attacks []robust.Attack
	for i := 0; len(attacks) < count; i++ {
		for _, kids := range tree.Kids[lp] {
			if i < len(kids) && len(attacks) < count {
				attacks = append(attacks, robust.Attack{
					Node: tree.ID(lp+1, kids[i]),
					Kind: robust.SignFlip,
					From: 1,
				})
			}
		}
	}
	return &robust.AttackPlan{Seed: seed, Attacks: attacks}
}

// RunByzantine sweeps sign-flip attacker fraction × aggregation rule: one
// row per aggregator (the undefended mean baseline, then the robust
// rules), one accuracy column per attacker fraction.
func RunByzantine(s Scale) (*Table, error) {
	cfg, err := BuildConfig(Workload{
		Dataset: "mnist", Model: "logistic",
		Edges:            ByzantineTopology(),
		ClassesPerWorker: 2,
		Tau:              5, Pi: 2,
	}, s)
	if err != nil {
		return nil, fmt.Errorf("byzantine: %w", err)
	}
	tree, err := cfg.Tree(nil)
	if err != nil {
		return nil, fmt.Errorf("byzantine: %w", err)
	}
	fractions := []float64{0, 0.2, 0.4}

	// run executes one cell.
	run := func(spec robust.Spec, plan *robust.AttackPlan) (*fl.Result, error) {
		defended, err := tree.WithAggregators(spec, spec)
		if err == nil {
			defended, err = defended.WithAttackPlan(plan)
		}
		if err != nil {
			return nil, err
		}
		return cluster.Run(cfg, transport.NewMemoryNetwork(), cluster.Options{Adaptive: true, Tree: defended})
	}

	tbl := &Table{
		Title: fmt.Sprintf("Byzantine — sign-flip attackers vs aggregation rule, logistic on MNIST, N=10 L=2, tau=%d pi=%d",
			cfg.Tau, cfg.Pi),
		Columns: byzantineColumns,
	}
	for _, spec := range []robust.Spec{
		{Kind: robust.Mean},
		{Kind: robust.Median},
		{Kind: robust.Trimmed, Trim: 0.4},
		{Kind: robust.Clip, Clip: 1},
		{Kind: robust.Cosine, CosMin: 0},
	} {
		cells := make([]string, 0, len(byzantineColumns))
		rejectedAtMax := 0
		for _, frac := range fractions {
			res, err := run(spec, ByzantinePlan(frac, tree, s.Seed))
			if err != nil {
				return nil, fmt.Errorf("byzantine %s at %.0f%%: %w", spec, 100*frac, err)
			}
			cells = append(cells, Pct(res.FinalAcc))
			rejectedAtMax = res.AttackReport.TotalRejected()
		}
		cells = append(cells, fmt.Sprintf("%d", rejectedAtMax))
		tbl.AddRow(spec.String(), cells...)
	}
	return tbl, nil
}
