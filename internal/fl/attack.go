package fl

import (
	"fmt"
	"slices"
	"strings"

	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
)

// AttackReport records a run's Byzantine scenario: how many adversarial
// updates were injected (by attack kind) and what each aggregating level's
// robust rule did about them, tier 0 being the root. Both engines build it
// with NewAttackReport; a nil AttackReport on a Result means the robust
// layer never engaged — no attack plan and plain mean aggregation at every
// level.
type AttackReport struct {
	// Injected maps an attack kind (signflip, scale, noise, replay) to
	// the number of boundary reports it mutated.
	Injected map[string]int `json:",omitempty"`
	// RejectedByTier maps a tier index to the number of child reports its
	// robust aggregations excluded (non-finite values or cosine-filter
	// outliers); a tier that rejected nothing has no entry.
	RejectedByTier map[int]int `json:",omitempty"`
	// ClippedByTier maps a tier index to the number of child updates its
	// robust aggregations norm-clipped.
	ClippedByTier map[int]int `json:",omitempty"`
	// TierAggregators lists the canonical rule name per aggregating tier
	// (e.g. "median", "trimmed(0.2)"), root first.
	TierAggregators []string `json:",omitempty"`
}

// NewAttackReport builds the report of a run over tree from its ledger's
// tally: the injections by kind and every level's rejections and clips; nil
// when nothing was injected, rejected or clipped, no level is robust and the
// tree carries no attack plan.
func NewAttackReport(tree *topology.Tree, tally telemetry.Tally) *AttackReport {
	rejected, clipped := byTier(tally, telemetry.Rejected), byTier(tally, telemetry.Clipped)
	if len(tally.Injections) == 0 && rejected == nil && clipped == nil && !tree.Robust() && tree.AttackPlan() == nil {
		return nil
	}
	return &AttackReport{Injected: tally.Injections, RejectedByTier: rejected, ClippedByTier: clipped,
		TierAggregators: tree.Aggregators()}
}

// byTier keeps fact f's non-zero per-level counts; nil when there are none.
func byTier(tally telemetry.Tally, f telemetry.Fact) map[int]int {
	var m map[int]int
	for tier, counts := range tally.Tiers {
		if n := counts[f]; n != 0 {
			if m == nil {
				m = make(map[int]int)
			}
			m[tier] = n
		}
	}
	return m
}

// TotalInjected sums the injected-update counts over all attack kinds.
func (a *AttackReport) TotalInjected() int {
	if a == nil {
		return 0
	}
	return sum(a.Injected)
}

// TotalRejected sums the rejections across all tiers.
func (a *AttackReport) TotalRejected() int {
	if a == nil {
		return 0
	}
	return sum(a.RejectedByTier)
}

// TotalClipped sums the clips across all tiers.
func (a *AttackReport) TotalClipped() int {
	if a == nil {
		return 0
	}
	return sum(a.ClippedByTier)
}

// sum adds up a counter map's values.
func sum[K comparable](m map[K]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// String renders a human-readable summary.
func (a *AttackReport) String() string {
	if a == nil {
		return "no attack scenario"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "byzantine: tier aggregators %s", strings.Join(a.TierAggregators, "/"))
	if len(a.Injected) > 0 {
		fmt.Fprintf(&b, "\n  injected updates (%d total): %s", a.TotalInjected(), formatCounts(a.Injected, ""))
	}
	if len(a.RejectedByTier) > 0 {
		fmt.Fprintf(&b, "\n  rejected updates by tier: %s", formatCounts(a.RejectedByTier, "tier"))
	}
	if len(a.ClippedByTier) > 0 {
		fmt.Fprintf(&b, "\n  clipped updates by tier: %s", formatCounts(a.ClippedByTier, "tier"))
	}
	return b.String()
}

// formatCounts renders a counter map as "<prefix><key>(×<count>)" entries in
// ascending key order (map iteration order is not deterministic).
func formatCounts[K int | string](m map[K]int, prefix string) string {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s%v(×%d)", prefix, k, m[k])
	}
	return strings.Join(parts, " ")
}
