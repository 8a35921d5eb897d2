package core

import "hieradmo/internal/rng"

// ParticipationSchedule reproduces the per-round participant cohorts that a
// WithParticipation(frac) run samples for the given seed and topology:
// cohorts[k][l] lists (sorted) the workers of edge l participating in the
// (k+1)-th edge aggregation. It consumes the participation stream in
// exactly the order Run does — per round, edges in index order — so
// external engines (the cluster runtime's quorum path, tests) can match a
// simulation cohort for cohort.
func ParticipationSchedule(seed uint64, frac float64, workersPerEdge []int, rounds int) [][][]int {
	h := New(WithParticipation(frac))
	r := rng.New(seed).Split(0x9a47)
	out := make([][][]int, rounds)
	for k := range out {
		out[k] = make([][]int, len(workersPerEdge))
		for l, n := range workersPerEdge {
			out[k][l] = h.sampleParticipants(r, make([]int, n))
		}
	}
	return out
}
