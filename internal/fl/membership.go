package fl

import (
	"fmt"

	"hieradmo/internal/membership"
	"hieradmo/internal/topology"
)

// MembershipReport summarizes a run's dynamic-membership trajectory: the
// schedule's totals — workers that joined late, left early, or were moved
// between edges by re-tiering, and how the live population evolved — and
// the γℓ migration rule in effect (zero, carry, or rescale). Both engines
// fill it from the tree's precomputed membership schedule
// (NewMembershipReport), so in a fault-free run it always matches the churn
// trace exactly.
type MembershipReport struct {
	membership.Summary
	MigrationPolicy string
}

// String renders the report for CLI output.
func (m *MembershipReport) String() string {
	if m == nil {
		return "membership: static"
	}
	return fmt.Sprintf("membership: %d joins, %d leaves, %d reassignments over %d re-tierings; %d epochs; workers %d→%d; migration=%s",
		m.Joins, m.Leaves, m.Reassignments, m.Retierings, m.Epochs, m.InitialWorkers, m.FinalWorkers, m.MigrationPolicy)
}

// NewMembershipReport summarizes the membership trajectory of the tree a run
// executed; nil for a static tree.
func NewMembershipReport(tree *topology.Tree) *MembershipReport {
	m := tree.Membership()
	if m == nil {
		return nil
	}
	return &MembershipReport{Summary: m.Summarize(), MigrationPolicy: m.Policy.String()}
}

// LeafStats returns the workers' re-tiering statistics in leaf order
// (Shards): each shard's size and its label histogram, pure functions of the
// data partition, so every process derives the same ones. The histogram is
// the shard's raw per-class sample counts, not normalized: it sums to the
// shard's size, so the L1 distances membership.Assign clusters by grow with
// shard size.
func (c *Config) LeafStats() []membership.WorkerStat {
	shards := c.Shards()
	numClasses := 0
	for _, shard := range shards {
		numClasses = max(numClasses, len(shard.ClassCounts()))
	}
	stats := make([]membership.WorkerStat, len(shards))
	for j, shard := range shards {
		hist := make([]float64, numClasses)
		for k, n := range shard.ClassCounts() {
			hist[k] = float64(n)
		}
		stats[j] = membership.WorkerStat{Weight: float64(shard.Len()), Hist: hist}
	}
	return stats
}
