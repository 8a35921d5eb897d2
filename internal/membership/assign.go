package membership

import "fmt"

// WorkerStat is the clustering statistic for one worker: its data weight
// (shard size) and its class histogram. Both are pure functions of the
// deterministic data partition, so every node derives identical stats from
// the shared config — the precondition for decision-free re-tiering.
type WorkerStat struct {
	// Weight is the worker's shard size in samples.
	Weight float64
	// Hist is the worker's class histogram. Assign takes it as given:
	// fl.Config.LeafStats passes raw per-class sample counts, which sum to
	// Weight, not to 1, so Assign's L1 distances grow with shard size. All
	// stats passed to one Assign call must have the same length.
	Hist []float64
}

// Assign clusters the given workers onto numEdges edges by label
// distribution and returns, aligned with stats, the edge index assigned to
// each worker. The algorithm is a deterministic balanced greedy pass:
//
//   - Workers are visited in the given order (ascending leaf index).
//   - Edge capacities are balanced: ⌈n/L⌉ or ⌊n/L⌋, the larger ones on the
//     lowest edge indices.
//   - A worker goes to the lowest-index empty edge while any edge is empty
//     (every edge must end non-empty); otherwise to the non-full edge whose
//     weighted centroid histogram is nearest in L1 distance, ties broken by
//     the lowest edge index (i.e. ultimately by worker/edge ID order).
//
// Grouping similar label distributions under one edge makes each edge's
// aggregate gradient coherent, which is what the adaptive γℓ cosine test
// rewards. The same float operations run in the same order on every node,
// so the assignment is bit-identical everywhere.
func Assign(stats []WorkerStat, numEdges int) ([]int, error) {
	n := len(stats)
	if numEdges < 1 {
		return nil, fmt.Errorf("membership: assign: need at least one edge, got %d", numEdges)
	}
	if n < numEdges {
		return nil, fmt.Errorf("membership: assign: %d workers cannot fill %d edges", n, numEdges)
	}
	dim := len(stats[0].Hist)
	for i, s := range stats {
		if len(s.Hist) != dim {
			return nil, fmt.Errorf("membership: assign: histogram length mismatch for worker %d", i)
		}
	}

	capacity := make([]int, numEdges)
	for l := range capacity {
		capacity[l] = n / numEdges
		if l < n%numEdges {
			capacity[l]++
		}
	}
	counts := make([]int, numEdges)
	centW := make([]float64, numEdges)
	cent := make([][]float64, numEdges)
	for l := range cent {
		cent[l] = make([]float64, dim)
	}

	out := make([]int, n)
	for i, s := range stats {
		best := -1
		bestDist := 0.0
		for l := 0; l < numEdges; l++ {
			if counts[l] >= capacity[l] {
				continue
			}
			if counts[l] == 0 {
				// Empty edges are filled first (lowest index wins) so every
				// edge ends non-empty.
				best = l
				break
			}
			d := 0.0
			for c := 0; c < dim; c++ {
				diff := s.Hist[c] - cent[l][c]/centW[l]
				if diff < 0 {
					diff = -diff
				}
				d += diff
			}
			if best < 0 || d < bestDist {
				best, bestDist = l, d
			}
		}
		if best < 0 {
			// Unreachable: Σ capacity == n, so some edge always has room.
			return nil, fmt.Errorf("membership: assign: no edge with spare capacity for worker %d", i)
		}
		out[i] = best
		counts[best]++
		centW[best] += s.Weight
		for c := 0; c < dim; c++ {
			cent[best][c] += s.Weight * s.Hist[c]
		}
	}
	return out, nil
}
