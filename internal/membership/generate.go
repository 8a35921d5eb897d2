package membership

import (
	"fmt"

	"hieradmo/internal/rng"
)

// GenSpec parameterizes the seeded churn-plan generator.
type GenSpec struct {
	// Seed derives every random choice; equal specs over equal topologies
	// generate equal plans.
	Seed uint64
	// Joins is the number of workers converted into late joiners; Leaves the
	// number of workers that leave early. The two sets are disjoint.
	Joins, Leaves int
}

// Generate draws a seeded churn plan over the workers named ids, in leaf
// order: Joins distinct workers join in the first half of the run (rounds
// 2..⌈K/2⌉) and Leaves other distinct workers leave in the second half
// (rounds ⌈K/2⌉+1..K-1).
// Placing joins early and leaves late keeps generated plans valid for any
// topology whose edges would survive losing Leaves workers; callers still
// validate by building a Schedule. The draw is a pure function of
// (spec, ids, K).
func Generate(spec GenSpec, ids []string, K int) (Plan, error) {
	if spec.Joins < 0 || spec.Leaves < 0 {
		return Plan{}, fmt.Errorf("membership: generate: negative event counts")
	}
	if spec.Joins+spec.Leaves > len(ids) {
		return Plan{}, fmt.Errorf("membership: generate: %d events over %d workers", spec.Joins+spec.Leaves, len(ids))
	}
	if K < 4 && spec.Joins+spec.Leaves > 0 {
		return Plan{}, fmt.Errorf("membership: generate: need at least 4 rounds, got %d", K)
	}
	ordered := append([]string(nil), ids...)
	r := rng.New(spec.Seed).Split(0xC0110)
	r.Shuffle(len(ordered), func(i, j int) { ordered[i], ordered[j] = ordered[j], ordered[i] })

	half := (K + 1) / 2
	var p Plan
	for i := 0; i < spec.Joins; i++ {
		round := 2 + r.Intn(max(1, half-1)) // rounds 2..half
		p.Events = append(p.Events, Event{Round: round, Action: ActionJoin, Worker: ordered[i]})
	}
	for i := 0; i < spec.Leaves; i++ {
		round := half + 1 + r.Intn(max(1, K-1-half)) // rounds half+1..K-1
		p.Events = append(p.Events, Event{Round: round, Action: ActionLeave, Worker: ordered[spec.Joins+i]})
	}
	p.Events = p.normalized()
	return p, nil
}
