package dataset

import (
	"fmt"
	"math"

	"hieradmo/internal/rng"
)

// PartitionIID splits d into numShards shards of (near-)equal size after a
// uniform shuffle, so every shard is an IID draw from the full distribution.
// Shards share sample storage with d.
func PartitionIID(d *Dataset, numShards int, seed uint64) ([]*Dataset, error) {
	if numShards <= 0 {
		return nil, fmt.Errorf("dataset: %d shards, need at least 1", numShards)
	}
	if d.Len() < numShards {
		return nil, fmt.Errorf("dataset: %d samples cannot fill %d shards", d.Len(), numShards)
	}
	r := rng.New(seed).Split(0x11d)
	perm := r.Perm(d.Len())
	shards := make([]*Dataset, numShards)
	for s := 0; s < numShards; s++ {
		lo := s * d.Len() / numShards
		hi := (s + 1) * d.Len() / numShards
		shards[s] = d.Subset(perm[lo:hi])
	}
	return shards, nil
}

// PartitionClasses implements the paper's x-class non-IID protocol: each of
// numShards workers is assigned exactly classesPerShard distinct classes
// (chosen at random), and each class's samples are divided evenly among the
// workers holding that class. Smaller classesPerShard means a higher level
// of non-IID-ness (larger gradient divergence δ).
//
// Class-to-worker assignment round-robins over a shuffled class multiset so
// every class is held by at least one worker whenever
// numShards*classesPerShard >= NumClasses.
func PartitionClasses(d *Dataset, numShards, classesPerShard int, seed uint64) ([]*Dataset, error) {
	switch {
	case numShards <= 0:
		return nil, fmt.Errorf("dataset: %d shards, need at least 1", numShards)
	case classesPerShard <= 0 || classesPerShard > d.NumClasses:
		return nil, fmt.Errorf("dataset: %d classes per shard out of range [1,%d]",
			classesPerShard, d.NumClasses)
	case d.Len() == 0:
		return nil, ErrEmpty
	}
	r := rng.New(seed).Split(0xc1a55)

	// Build the class multiset: numShards*classesPerShard slots filled by
	// cycling through a shuffled class order, then deal slots to workers.
	totalSlots := numShards * classesPerShard
	order := r.Perm(d.NumClasses)
	slots := make([]int, totalSlots)
	for i := range slots {
		slots[i] = order[i%d.NumClasses]
	}
	r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	// Assign slots worker by worker, avoiding duplicate classes within a
	// worker by swapping with a later slot when possible.
	classOwners := make(map[int][]int, d.NumClasses) // class -> worker ids
	workerClasses := make([]map[int]bool, numShards)
	for w := 0; w < numShards; w++ {
		workerClasses[w] = make(map[int]bool, classesPerShard)
		for k := 0; k < classesPerShard; k++ {
			idx := w*classesPerShard + k
			if workerClasses[w][slots[idx]] {
				// Find a later slot with a class this worker lacks.
				for j := idx + 1; j < totalSlots; j++ {
					if !workerClasses[w][slots[j]] {
						slots[idx], slots[j] = slots[j], slots[idx]
						break
					}
				}
			}
			c := slots[idx]
			if workerClasses[w][c] {
				continue // duplicates can remain in degenerate settings; skip
			}
			workerClasses[w][c] = true
			classOwners[c] = append(classOwners[c], w)
		}
	}

	// Group sample indices per class, shuffled.
	byClass := make([][]int, d.NumClasses)
	for i, s := range d.Samples {
		byClass[s.Label] = append(byClass[s.Label], i)
	}
	for c := range byClass {
		idx := byClass[c]
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}

	// Deal each class's samples evenly to its owners. Classes are walked in
	// index order, NOT map order: shard contents must be reproducible across
	// processes so a checkpointed run can be resumed bit-identically.
	assigned := make([][]int, numShards)
	for c := 0; c < d.NumClasses; c++ {
		owners := classOwners[c]
		idx := byClass[c]
		if len(owners) == 0 || len(idx) == 0 {
			continue
		}
		for i, sampleIdx := range idx {
			w := owners[i%len(owners)]
			assigned[w] = append(assigned[w], sampleIdx)
		}
	}

	shards := make([]*Dataset, numShards)
	for w := range shards {
		if len(assigned[w]) == 0 {
			return nil, fmt.Errorf("dataset: worker %d received no samples "+
				"(dataset too small for %d shards × %d classes)", w, numShards, classesPerShard)
		}
		shards[w] = d.Subset(assigned[w])
	}
	return shards, nil
}

// PartitionDirichlet implements the Dirichlet(α) non-IID protocol common in
// the FL literature: for each class, the per-worker share of that class's
// samples is drawn from a symmetric Dirichlet distribution. Small α gives
// highly skewed (near single-class) shards; large α approaches IID. It
// complements the paper's x-class protocol with a continuously tunable
// heterogeneity level.
func PartitionDirichlet(d *Dataset, numShards int, alpha float64, seed uint64) ([]*Dataset, error) {
	switch {
	case numShards <= 0:
		return nil, fmt.Errorf("dataset: %d shards, need at least 1", numShards)
	case alpha <= 0:
		return nil, fmt.Errorf("dataset: dirichlet alpha %v must be positive", alpha)
	case d.Len() == 0:
		return nil, ErrEmpty
	}
	r := rng.New(seed).Split(0xd112)

	byClass := make([][]int, d.NumClasses)
	for i, s := range d.Samples {
		byClass[s.Label] = append(byClass[s.Label], i)
	}
	assigned := make([][]int, numShards)
	for _, idx := range byClass {
		if len(idx) == 0 {
			continue
		}
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		shares := dirichlet(r, numShards, alpha)
		// Convert shares to cumulative sample boundaries.
		start := 0
		var cum float64
		for w := 0; w < numShards; w++ {
			cum += shares[w]
			end := int(cum*float64(len(idx)) + 0.5)
			if w == numShards-1 {
				end = len(idx)
			}
			if end > len(idx) {
				end = len(idx)
			}
			if end > start {
				assigned[w] = append(assigned[w], idx[start:end]...)
			}
			start = end
		}
	}
	// Guarantee no empty shard: steal one sample from the largest shard.
	for w := range assigned {
		if len(assigned[w]) > 0 {
			continue
		}
		largest := 0
		for j := range assigned {
			if len(assigned[j]) > len(assigned[largest]) {
				largest = j
			}
		}
		if len(assigned[largest]) < 2 {
			return nil, fmt.Errorf("dataset: too few samples to fill %d dirichlet shards", numShards)
		}
		n := len(assigned[largest])
		assigned[w] = append(assigned[w], assigned[largest][n-1])
		assigned[largest] = assigned[largest][:n-1]
	}
	shards := make([]*Dataset, numShards)
	for w := range shards {
		shards[w] = d.Subset(assigned[w])
	}
	return shards, nil
}

// dirichlet draws one symmetric Dirichlet(α) sample of dimension n via
// normalized Gamma(α,1) variates (Marsaglia–Tsang for α ≥ 1, boosting for
// α < 1).
func dirichlet(r *rng.RNG, n int, alpha float64) []float64 {
	out := make([]float64, n)
	var sum float64
	for i := range out {
		out[i] = gammaVariate(r, alpha)
		sum += out[i]
	}
	if sum == 0 {
		// Degenerate draw (vanishingly unlikely); fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(n)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// gammaVariate samples Gamma(shape, 1) using Marsaglia–Tsang, with the
// standard U^{1/α} boost for shape < 1.
func gammaVariate(r *rng.RNG, shape float64) float64 {
	if shape < 1 {
		u := r.Float64()
		if u == 0 {
			u = 1e-300
		}
		return gammaVariate(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u == 0 {
			u = 1e-300
		}
		if math.Log(u) < 0.5*x*x+d-d*v+d*math.Log(v) {
			return d * v
		}
	}
}

// Hierarchy arranges flat worker shards into the paper's L-edge topology:
// edges[ℓ][i] is the dataset of worker {i,ℓ}. Workers are dealt to edges in
// order, workersPerEdge[ℓ] at a time.
func Hierarchy(shards []*Dataset, workersPerEdge []int) ([][]*Dataset, error) {
	total := 0
	for _, c := range workersPerEdge {
		if c <= 0 {
			return nil, fmt.Errorf("dataset: edge with %d workers", c)
		}
		total += c
	}
	if total != len(shards) {
		return nil, fmt.Errorf("dataset: %d shards for %d hierarchy slots", len(shards), total)
	}
	edges := make([][]*Dataset, len(workersPerEdge))
	next := 0
	for l, c := range workersPerEdge {
		edges[l] = shards[next : next+c]
		next += c
	}
	return edges, nil
}
