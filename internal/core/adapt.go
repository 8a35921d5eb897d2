package core

import (
	"fmt"

	"hieradmo/internal/tensor"
)

// DefaultClampCeiling is the paper's upper clamp on γℓ in eq. (7); values at
// or above 1 would risk divergence, so the paper caps at 0.99.
const DefaultClampCeiling = 0.99

// ClampGamma applies the paper's eq. (7) to a raw cosine: negative agreement
// zeroes the edge momentum, positive agreement is used directly as the
// momentum weight, and values at or above ceiling are clamped to ceiling.
func ClampGamma(cos, ceiling float64) float64 {
	switch {
	case cos <= 0:
		return 0
	case cos >= ceiling:
		return ceiling
	default:
		return cos
	}
}

// EdgeCosine computes eq. (6): the Dᵢ/Dℓ-weighted average over the edge's
// workers of the cosine between the negated accumulated gradient and each
// worker's momentum signal, which Level.Term forms as Σy − τ·x⁰. The
// negation is folded into the reduction (tensor.NegCosine), so no worker's
// gradient sum is ever cloned. Tier.Update performs the same sum over terms
// its reporters computed with Level.Term, so this whole-cohort form is the
// reference the kernel is tested against.
func EdgeCosine(weights []float64, gradSums, signals []tensor.Vector) (float64, error) {
	if len(weights) != len(gradSums) || len(weights) != len(signals) {
		return 0, fmt.Errorf("core: cosine over %d/%d/%d entries: %w",
			len(weights), len(gradSums), len(signals), tensor.ErrDimMismatch)
	}
	var cos float64
	for i := range weights {
		c, err := tensor.NegCosine(gradSums[i], signals[i])
		if err != nil {
			return 0, fmt.Errorf("core: worker %d cosine: %w", i, err)
		}
		cos += weights[i] * c
	}
	return cos, nil
}
