// Package core implements the paper's primary contribution: HierAdMo, the
// three-tier client–edge–cloud federated-learning algorithm with Nesterov
// momentum at the worker level, a second momentum at the edge level, and
// online adaptation of the edge momentum factor γℓ from the real-time angle
// between accumulated worker gradients and worker momenta (Algorithm 1 with
// eq. (6)–(7)).
//
// The reduced variant HierAdMo-R (fixed γℓ, no adaptation — the paper's
// comparison point for Theorem 5) is the same implementation with adaptation
// disabled.
//
// The package is layered: kernel.go holds the only copy of Algorithm 1's
// arithmetic (Leaf, Tier, Level); sim.go is the one in-process simulation
// driver, which runs any row of the rule table (Rule) — HierAdMo's two here,
// the nine baselines' in internal/baseline; this file is HierAdMo's options
// and its row.
package core

import (
	"fmt"

	"hieradmo/internal/fl"
	"hieradmo/internal/rng"
)

// HierAdMo executes Algorithm 1. The zero value is not usable; construct
// with New or NewReduced.
type HierAdMo struct {
	adaptive bool
	signal   AdaptSignal
	ceiling  float64
	// participation is the fraction of each edge's workers sampled into
	// every edge aggregation (1 = the paper's full cross-silo
	// participation; smaller values model the cross-device regime the
	// paper leaves as future work). Non-participants keep training locally
	// and re-join at a later aggregation.
	participation float64
	// quantBits > 0 simulates a lossy uplink: every vector a worker ships
	// to its edge passes through a QSGD-style stochastic quantizer of that
	// width (see internal/quant).
	quantBits int
	// gammaStats optionally receives every adapted γℓ value (edge index,
	// value) for diagnostics and tests.
	gammaStats func(edge int, gamma float64)
}

var _ fl.Algorithm = (*HierAdMo)(nil)

// Option customizes a HierAdMo instance.
type Option func(*HierAdMo)

// WithAdaptSignal selects the adaptation statistic (default SignalYSum, the
// paper's eq. (6)).
func WithAdaptSignal(s AdaptSignal) Option {
	return func(h *HierAdMo) { h.signal = s }
}

// WithClampCeiling overrides the γℓ upper clamp (default 0.99, eq. (7)).
func WithClampCeiling(c float64) Option {
	return func(h *HierAdMo) { h.ceiling = c }
}

// WithGammaObserver registers a callback invoked with every adapted γℓ.
func WithGammaObserver(fn func(edge int, gamma float64)) Option {
	return func(h *HierAdMo) { h.gammaStats = fn }
}

// WithParticipation sets the fraction of each edge's workers sampled into
// every edge aggregation (default 1, full participation). Values are
// clamped to (0, 1]; each aggregation always includes at least one worker.
func WithParticipation(frac float64) Option {
	return func(h *HierAdMo) {
		if frac > 0 && frac <= 1 {
			h.participation = frac
		}
	}
}

// WithUplinkQuantization compresses every worker→edge upload through a
// QSGD-style stochastic quantizer of the given bit width (2–8; 0 disables).
// Invalid widths are ignored and surface when the run starts.
func WithUplinkQuantization(bits int) Option {
	return func(h *HierAdMo) { h.quantBits = bits }
}

// New returns the full adaptive HierAdMo algorithm.
func New(opts ...Option) *HierAdMo {
	h := &HierAdMo{
		adaptive:      true,
		signal:        SignalYSum,
		ceiling:       DefaultClampCeiling,
		participation: 1,
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// NewReduced returns HierAdMo-R: the same two-level momentum scheme with the
// edge momentum factor fixed to the config's GammaEdge.
func NewReduced(opts ...Option) *HierAdMo {
	h := &HierAdMo{
		adaptive:      false,
		signal:        SignalYSum,
		ceiling:       DefaultClampCeiling,
		participation: 1,
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Name implements fl.Algorithm.
func (h *HierAdMo) Name() string {
	if h.adaptive {
		return "HierAdMo"
	}
	return "HierAdMo-R"
}

// variant folds the run options living outside fl.Config into the
// checkpoint fingerprint, so a snapshot never resumes under different
// adaptation, participation, or quantization settings.
func (h *HierAdMo) variant() string {
	return fmt.Sprintf("adaptive=%v signal=%d ceiling=%g participation=%g quantBits=%d",
		h.adaptive, h.signal, h.ceiling, h.participation, h.quantBits)
}

// Row is HierAdMo's line of the algorithm table: kernel NAG leaves under
// momentum edges whose γℓ adapts (HierAdMo) or stays at cfg.GammaEdge
// (HierAdMo-R), under a plain-average cloud.
func (h *HierAdMo) Row() *Rule {
	return &Rule{
		Algorithm:     h.Name(),
		ShipsMomentum: true,
		Nesterov:      true,
		Level:         Level{Momentum: true, Adapt: h.adaptive, Signal: h.signal, Ceiling: h.ceiling},
		hier:          h,
	}
}

// Run implements fl.Algorithm.
func (h *HierAdMo) Run(cfg *fl.Config) (*fl.Result, error) { return h.Row().Run(cfg) }

// sampleParticipants returns the sorted worker indices taking part in an
// edge aggregation: all of them at full participation, otherwise a uniform
// sample of max(1, round(frac·C)) workers.
func (h *HierAdMo) sampleParticipants(r *rng.RNG, numWorkers int) []int {
	if h.participation >= 1 {
		idx := make([]int, numWorkers)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	k := int(h.participation*float64(numWorkers) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > numWorkers {
		k = numWorkers
	}
	perm := r.Perm(numWorkers)[:k]
	// Sort for deterministic aggregation order.
	for i := 1; i < len(perm); i++ {
		for j := i; j > 0 && perm[j] < perm[j-1]; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	return perm
}
