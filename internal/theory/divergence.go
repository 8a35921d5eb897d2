package theory

import (
	"fmt"

	"hieradmo/internal/fl"
	"hieradmo/internal/tensor"
)

// Divergence holds empirical estimates of the Assumption 3 gradient-
// divergence constants at a specific parameter point: δ(i,ℓ) per worker,
// their data-weighted edge averages δℓ, and the global weighted average δ.
type Divergence struct {
	PerWorker [][]float64
	PerEdge   []float64
	Global    float64
}

// EstimateDivergence computes full-shard gradients for every worker at
// params and measures ‖∇F(i,ℓ) − ∇Fℓ‖ per worker, then aggregates per the
// paper's definitions (δℓ = Σᵢ D(i,ℓ)/Dℓ · δ(i,ℓ), δ = Σℓ Dℓ/D · δℓ).
// Assumption 3's constants are suprema over x; evaluating at the shared
// initialization (or any training iterate) yields the standard empirical
// proxy used to compare heterogeneity levels across partitionings.
func EstimateDivergence(cfg *fl.Config, params tensor.Vector) (*Divergence, error) {
	hn, err := fl.NewHarness(cfg, nil)
	if err != nil {
		return nil, err
	}
	weights := hn.Tree().Weights
	dim := len(params)
	div := &Divergence{
		PerWorker: make([][]float64, cfg.NumEdges()),
		PerEdge:   make([]float64, cfg.NumEdges()),
	}
	for l, edge := range cfg.Edges {
		grads := make([]tensor.Vector, len(edge))
		for i, shard := range edge {
			grads[i] = tensor.NewVector(dim)
			if _, err := cfg.Model.LossGrad(params, shard.Samples, grads[i]); err != nil {
				return nil, fmt.Errorf("theory: worker {%d,%d} full gradient: %w", i, l, err)
			}
		}
		edgeGrad := tensor.NewVector(dim)
		if err := hn.EdgeAverage(edgeGrad, l, grads); err != nil {
			return nil, err
		}
		div.PerWorker[l] = make([]float64, len(edge))
		for i, g := range grads {
			d, err := tensor.Dist(g, edgeGrad)
			if err != nil {
				return nil, err
			}
			div.PerWorker[l][i] = d
			div.PerEdge[l] += weights[1][l][i] * d
		}
		div.Global += weights[0][0][l] * div.PerEdge[l]
	}
	return div, nil
}

// EdgeWeightsOf exposes the Dℓ/D weights of a config for use with J4/Bound.
func EdgeWeightsOf(cfg *fl.Config) ([]float64, error) {
	tree, err := cfg.Tree(nil)
	if err != nil {
		return nil, err
	}
	return tree.Weights[0][0], nil
}
