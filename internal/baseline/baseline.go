// Package baseline holds the nine comparison algorithms of the paper's
// evaluation (§V-B) as rows of the rule table core.Rule.Run drives:
//
//	algorithm   view  leaf step            tier the workers report to   hook
//	HierFAVG    3     kernel, γ = 0 (SGD)  plain average                —
//	CFL         3     kernel, γ = 0 (SGD)  plain average                partial edge mix
//	FedAvg      flat  kernel, γ = 0 (SGD)  plain average                —
//	FedNAG      flat  kernel, γ            plain average                —
//	FastSlowMo  flat  kernel, γ            momentum, fixed γℓ           —
//	FedMom      flat  kernel, γ = 0 (SGD)  plain average                server heavy-ball
//	SlowMo      flat  Polyak momentum      plain average                server heavy-ball
//	Mime        flat  frozen global mom.   plain average                momentum refresh
//	FedADC      flat  drift-controlled     plain average                pseudo-gradient momentum
//
// A flat row runs on the tree's flat view (topology.Tree.Flat), which
// connects every worker directly to the cloud with one aggregation period of
// τ·π, matching the paper's fair-comparison setup. The
// first group is Algorithm 1 under another configuration and has no
// arithmetic here; the hooked rows keep only the server or worker rule that
// is genuinely not Algorithm 1 (hooks.go). CFL and FedADC follow the
// published update rules at the level of mechanism; see DESIGN.md §1 for the
// documented approximations.
package baseline

import (
	"hieradmo/internal/core"
	"hieradmo/internal/fl"
)

var (
	hierFAVG   = core.Rule{Algorithm: "HierFAVG"}
	cfl        = core.Rule{Algorithm: "CFL", Hooks: cflHooks, Extra: func(_, parents int) int { return parents }}
	fedAvg     = core.Rule{Algorithm: "FedAvg", Flat: true}
	fedNAG     = core.Rule{Algorithm: "FedNAG", Flat: true, Nesterov: true, ShipsMomentum: true}
	fastSlowMo = core.Rule{Algorithm: "FastSlowMo", Flat: true, Nesterov: true, ShipsMomentum: true,
		Level: core.Level{Momentum: true}}
	fedMom = core.Rule{Algorithm: "FedMom", Flat: true, Hooks: serverMomentumHooks(false),
		Extra: func(int, int) int { return 2 }}
	slowMo = core.Rule{Algorithm: "SlowMo", Flat: true, Hooks: serverMomentumHooks(true),
		Extra: func(leaves, _ int) int { return leaves + 2 }}
	mime = core.Rule{Algorithm: "Mime", Flat: true, ShipsMomentum: true, Hooks: mimeHooks,
		Extra: func(int, int) int { return 2 }}
	fedADC = core.Rule{Algorithm: "FedADC", Flat: true, ShipsMomentum: true, Hooks: fedADCHooks,
		Extra: func(int, int) int { return 3 }}
)

// The exported algorithm types each wrap their row; construct them with the
// New functions.
type (
	// HierFAVG is client–edge–cloud hierarchical FedAvg (Liu et al., ICC'20):
	// plain SGD at the workers, weighted model averaging at each edge every τ
	// iterations and at the cloud every τπ iterations.
	HierFAVG struct{ *core.Rule }
	// CFL approximates resource-efficient hierarchical aggregation (Wang et
	// al., INFOCOM'21) as hierarchical FedAvg with partial edge aggregation:
	// x_edge ← (1−κ)·x_edge + κ·avg(workers), κ = 0.9. See DESIGN.md §1.
	CFL struct{ *core.Rule }
	// FedAvg is the classic two-tier baseline (McMahan et al.): plain local
	// SGD with weighted model averaging at the cloud every τ·π iterations.
	FedAvg struct{ *core.Rule }
	// FedNAG (Yang et al., TPDS'22) runs Nesterov accelerated gradient at
	// every worker and aggregates both the model and the momentum variable at
	// the cloud every τ·π iterations, redistributing the averages.
	FedNAG struct{ *core.Rule }
	// Mime (Karimireddy et al., MimeLite variant) mimics centralized momentum
	// inside the local steps: every worker applies a frozen global momentum
	// during its round, and the server refreshes it from the workers' mean
	// interval gradients after each round.
	Mime struct{ *core.Rule }
	// FastSlowMo (Yang et al., TAI'22) combines worker and aggregator momenta
	// in the two-tier setting: workers run NAG, and at each aggregation the
	// server applies its own momentum to the averaged worker models while the
	// averaged worker momentum is redistributed — the two-tier reduction of
	// HierAdMo-R, and in the table exactly that.
	FastSlowMo struct{ *core.Rule }
	// FedADC approximates accelerated federated learning with drift control
	// (Ozfatura et al., ISIT'21): the server maintains a momentum of the
	// aggregated pseudo-gradient and pushes it down to the workers, who mix
	// it into every local step. See DESIGN.md §1 for the approximation note.
	FedADC struct{ *core.Rule }
)

// NewHierFAVG returns the standard hierarchical FedAvg baseline.
func NewHierFAVG() *HierFAVG { return &HierFAVG{&hierFAVG} }

// NewCFL returns the CFL baseline with the documented κ = 0.9.
func NewCFL() *CFL { return &CFL{&cfl} }

// NewFedAvg returns the FedAvg baseline.
func NewFedAvg() FedAvg { return FedAvg{&fedAvg} }

// NewFedNAG returns the FedNAG baseline.
func NewFedNAG() FedNAG { return FedNAG{&fedNAG} }

// NewFedMom returns the federated server-momentum baseline (Huo et al.):
// plain SGD workers, heavy-ball momentum at the aggregator.
func NewFedMom() fl.Algorithm { return &fedMom }

// NewSlowMo returns the SlowMo baseline (Wang et al., ICLR'20): local SGD
// with worker-level Polyak momentum plus slow server momentum.
func NewSlowMo() fl.Algorithm { return &slowMo }

// NewMime returns the MimeLite baseline.
func NewMime() Mime { return Mime{&mime} }

// NewFastSlowMo returns the FastSlowMo baseline.
func NewFastSlowMo() FastSlowMo { return FastSlowMo{&fastSlowMo} }

// NewFedADC returns the FedADC baseline.
func NewFedADC() FedADC { return FedADC{&fedADC} }
