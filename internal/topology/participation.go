package topology

import (
	"fmt"

	"hieradmo/internal/rng"
)

// participation is a tree's participant sample (WithParticipation): the
// cohort positions that report in every round of every leaf parent, all in
// one block. Round k's positions of leaf parent j are
// pos[(k-1)·stride+off[j] : (k-1)·stride+off[j+1]].
type participation struct {
	rounds int
	stride int
	off    []int
	pos    []int
}

// checkPart vets a participation fraction: one in (0, 1], so NaN fails too.
func checkPart(frac float64) error {
	if !(frac > 0 && frac <= 1) {
		return fmt.Errorf("%w: participation %v: want a fraction in (0, 1]", ErrAttr, frac)
	}
	return nil
}

// WithParticipation returns the tree a run sampling frac of every leaf
// parent's children into each of its rounds executes, the one place the
// sample is drawn: for each of the T/τ leaf-parent rounds, leaf parents in
// index order, max(1, round(frac·C)) of a node's C children, drawn from the
// stream rng.New(seed).Split(0x9a47) (sampleParticipants). The whole sample
// is drawn here, once; Sample reads it. At frac = 1 nothing is drawn and t
// itself is returned. A fraction outside (0, 1] is refused with ErrAttr, and
// so are a tree with membership epochs (WithMembership) and one that already
// samples. Only Levels (the leaf-parent level's Part) is new besides the
// sample, so neither t nor its spec changes, and String and every ID stay
// t's.
func (t *Tree) WithParticipation(frac float64, seed uint64, T int) (*Tree, error) {
	if err := checkPart(frac); err != nil {
		return nil, fmt.Errorf("topology: the tree %s: %w", t, err)
	}
	if frac == 1 {
		return t, nil
	}
	if t.part != nil {
		return nil, fmt.Errorf("%w: the tree %s already samples part=%g of its leaf parents' children", ErrAttr, t, t.Participation())
	}
	if t.churn != nil {
		return nil, fmt.Errorf("%w: the tree %s runs membership epochs, which do not run with part=%g", ErrAttr, t, frac)
	}
	lp := t.LeafParent()
	p := &participation{rounds: max(T/t.Levels[lp].Tau, 0), off: make([]int, t.Width(lp)+1)}
	maxFan := 0
	for j, kids := range t.Kids[lp] {
		p.off[j+1] = p.off[j] + sampleSize(frac, len(kids))
		maxFan = max(maxFan, len(kids))
	}
	p.stride = p.off[len(p.off)-1]
	p.pos = make([]int, p.rounds*p.stride)
	perm := make([]int, maxFan)
	r := rng.New(seed).Split(0x9a47)
	for k := 0; k < p.rounds; k++ {
		row := p.pos[k*p.stride : (k+1)*p.stride]
		for j, kids := range t.Kids[lp] {
			copy(row[p.off[j]:p.off[j+1]], sampleParticipants(r, frac, perm[:len(kids)]))
		}
	}
	levels := append([]Level(nil), t.Levels...)
	levels[lp].Part = frac
	sampled := t.clone()
	sampled.Levels, sampled.part = levels, p
	return sampled, nil
}

// Sample returns the cohort positions — indices into Children's list — of
// leaf parent j that report in its round k ≥ 1, ascending, or nil on a tree
// that samples none, where every child reports. It allocates nothing.
func (t *Tree) Sample(j, k int) []int {
	p := t.part
	if p == nil {
		return nil
	}
	row := p.pos[(k-1)*p.stride:]
	return row[p.off[j]:p.off[j+1]:p.off[j+1]]
}

// Participation returns the fraction of the leaf parents' children the tree
// samples into each round: 1 when it samples none.
func (t *Tree) Participation() float64 {
	if t.part == nil {
		return 1
	}
	return t.Levels[t.LeafParent()].Part
}

// sampleSize is how many of n children a round at fraction frac samples:
// round(frac·n), at least one.
func sampleSize(frac float64, n int) int {
	return min(max(int(frac*float64(n)+0.5), 1), n)
}

// sampleParticipants draws the sorted positions of the children taking part
// in one round into perm, whose length is the cohort's: sampleSize of them,
// uniformly. The draws are exactly rng.Perm's — the identity shuffled in
// place — so the stream moves as it always has.
func sampleParticipants(r *rng.RNG, frac float64, perm []int) []int {
	for i := range perm {
		perm[i] = i
	}
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	perm = perm[:sampleSize(frac, len(perm))]
	// Sort for deterministic aggregation order.
	for i := 1; i < len(perm); i++ {
		for j := i; j > 0 && perm[j] < perm[j-1]; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	return perm
}
