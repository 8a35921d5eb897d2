package core

import (
	"fmt"

	"hieradmo/internal/tensor"
)

// AdaptSignal selects which per-worker interval statistic the edge momentum
// adaptation compares against the accumulated gradient direction.
type AdaptSignal int

const (
	// SignalYSum is the paper's eq. (6): the angle between −Σₜ∇F(i,ℓ)(xᵗ)
	// and Σₜ yᵗ over the edge interval. With the common zero-centred
	// initialization, Σy tracks the accumulated update direction.
	SignalYSum AdaptSignal = iota + 1
	// SignalVelocity is an ablation variant that uses the interval momentum
	// displacement y^{kτ} − y^{(k−1)τ} instead of Σy.
	SignalVelocity
)

// String implements fmt.Stringer for reports.
func (s AdaptSignal) String() string {
	switch s {
	case SignalYSum:
		return "ysum"
	case SignalVelocity:
		return "velocity"
	default:
		return fmt.Sprintf("AdaptSignal(%d)", int(s))
	}
}

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
// workers of the cosine between the negated accumulated gradient and the
// chosen momentum signal. The negation is folded into the reduction
// (tensor.NegCosine), so no worker's gradient sum is ever cloned. Tier.Update
// performs the same sum over terms its reporters computed with Level.Term,
// so this whole-cohort form is the reference the kernel is tested against.
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
