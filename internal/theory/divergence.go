package theory

import (
	"fmt"

	"hieradmo/internal/fl"
	"hieradmo/internal/tensor"
	"hieradmo/internal/topology"
)

// Divergence holds empirical estimates of the Assumption 3 gradient-
// divergence constants at a specific parameter point over a tree's leaf
// parents, ℓ indexing them in node order: δ(i,ℓ) per leaf, their
// data-weighted cohort averages δℓ, the leaf parents' weights Dℓ/D in the
// global objective, and the global weighted average δ.
type Divergence struct {
	PerWorker [][]float64
	PerEdge   []float64
	Weights   []float64
	Global    float64
}

// EstimateDivergence computes full-shard gradients for every leaf at params
// and measures ‖∇F(i,ℓ) − ∇Fℓ‖ per leaf against its leaf parent's cohort,
// then aggregates per the paper's definitions (δℓ = Σᵢ D(i,ℓ)/Dℓ · δ(i,ℓ),
// δ = Σℓ Dℓ/D · δℓ). The tree is the run's, passed through fl.NewHarness;
// nil scores the config's own cloud / edge / worker tree, whose leaf parents
// are the paper's edges. Assumption 3's constants are suprema over x;
// evaluating at the shared initialization (or any training iterate) yields
// the standard empirical proxy used to compare heterogeneity levels across
// partitionings.
func EstimateDivergence(cfg *fl.Config, tree *topology.Tree, params tensor.Vector) (*Divergence, error) {
	hn, err := fl.NewHarness(cfg, tree)
	if err != nil {
		return nil, err
	}
	tree, shards := hn.Tree(), cfg.Shards()
	lp := tree.LeafParent()
	cohorts := tree.Kids[lp]
	dim := len(params)
	div := &Divergence{
		PerWorker: make([][]float64, len(cohorts)),
		PerEdge:   make([]float64, len(cohorts)),
		Weights:   make([]float64, len(cohorts)),
	}
	for l, kids := range cohorts {
		grads := make([]tensor.Vector, len(kids))
		for i, j := range kids {
			grads[i] = tensor.NewVector(dim)
			if _, err := cfg.Model.LossGrad(params, shards[j].Samples, grads[i]); err != nil {
				return nil, fmt.Errorf("theory: worker {%d,%d} full gradient: %w", i, l, err)
			}
		}
		weights := tree.Weights[lp][l]
		mean := tensor.NewVector(dim)
		if err := tensor.WeightedSum(mean, weights, grads); err != nil {
			return nil, fmt.Errorf("theory: leaf parent %d average: %w", l, err)
		}
		div.PerWorker[l] = make([]float64, len(kids))
		for i, g := range grads {
			d, err := tensor.Dist(g, mean)
			if err != nil {
				return nil, err
			}
			div.PerWorker[l][i] = d
			div.PerEdge[l] += weights[i] * d
		}
		div.Weights[l] = float64(tree.Sizes[lp][l]) / float64(tree.Sizes[0][0])
		div.Global += div.Weights[l] * div.PerEdge[l]
	}
	return div, nil
}
