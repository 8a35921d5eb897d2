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
// The package is layered: kernel.go defines Algorithm 1's arithmetic once
// (Leaf, Tier, Level; kernel_amd64.s runs its element-wise loops four lanes
// at a time, to the bit); sim.go is the one in-process simulation
// driver, which runs any row of the rule table (Rule) — HierAdMo's two here,
// the nine baselines' in internal/baseline; this file is HierAdMo's options
// and its row.
package core

import (
	"fmt"

	"hieradmo/internal/fl"
	"hieradmo/internal/topology"
)

// HierAdMo executes Algorithm 1. The zero value is not usable; construct
// with New or NewReduced.
type HierAdMo struct {
	adaptive bool
	ceiling  float64
	// participation is the fraction of each edge's workers sampled into
	// every edge aggregation (1 = the paper's full cross-silo
	// participation; smaller values model the cross-device regime the
	// paper leaves as future work), written onto the run's tree as its
	// leaf parents' part= (Rule.RunTree).
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

// WithClampCeiling overrides the γℓ upper clamp (default 0.99, eq. (7)).
func WithClampCeiling(c float64) Option {
	return func(h *HierAdMo) { h.ceiling = c }
}

// WithGammaObserver registers a callback invoked with every adapted γℓ.
func WithGammaObserver(fn func(edge int, gamma float64)) Option {
	return func(h *HierAdMo) { h.gammaStats = fn }
}

// WithParticipation sets the fraction of each edge's workers sampled into
// every edge aggregation (default 1, full participation): the run's tree
// takes it as its leaf parents' part= (topology.Tree.WithParticipation),
// which validates it, so a fraction outside (0, 1] fails the run at its
// start with topology.ErrAttr. Each aggregation includes at least one
// worker.
func WithParticipation(frac float64) Option {
	return func(h *HierAdMo) { h.participation = frac }
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
// adaptation, participation, or quantization settings. "signal=1" names
// the eq. (6) statistic, the only one left; it stays in the string so
// snapshots written while a second statistic existed still resume.
func (h *HierAdMo) variant() string {
	return fmt.Sprintf("adaptive=%v signal=1 ceiling=%g participation=%g quantBits=%d",
		h.adaptive, h.ceiling, h.participation, h.quantBits)
}

// Row is HierAdMo's line of the algorithm table: kernel NAG leaves under
// momentum edges whose γℓ adapts (HierAdMo) or stays at cfg.GammaEdge
// (HierAdMo-R), under a plain-average cloud.
func (h *HierAdMo) Row() *Rule {
	return &Rule{
		Algorithm:     h.Name(),
		ShipsMomentum: true,
		Nesterov:      true,
		Level:         Level{Momentum: true, Adapt: h.adaptive, Ceiling: h.ceiling},
		hier:          h,
	}
}

// Run implements fl.Algorithm.
func (h *HierAdMo) Run(cfg *fl.Config) (*fl.Result, error) { return h.Row().Run(cfg) }

// RunTree runs Algorithm 1 over a tree cfg.Tree resolved (Rule.RunTree).
func (h *HierAdMo) RunTree(cfg *fl.Config, tree *topology.Tree) (*fl.Result, error) {
	return h.Row().RunTree(cfg, tree)
}
