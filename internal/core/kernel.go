package core

import (
	"fmt"

	"hieradmo/internal/robust"
	"hieradmo/internal/tensor"
)

// This file is the only copy of Algorithm 1's update arithmetic. The
// in-process simulation (sim.go) and the distributed tier runtime
// (internal/cluster) are drivers around it: they decide who reports, move the
// vectors, and observe the outcome; every floating-point operation of lines
// 5–6, 10–13 and 18–19 happens here, in one fixed order. The kernel emits
// nothing, reads no clock, sends nothing, and allocates nothing after
// construction; it branches on a level's properties, never on its caller.

// Leaf is one training worker's Algorithm 1 state. Every vector is owned
// exclusively by its leaf, so distinct leaves step concurrently without
// synchronization.
type Leaf struct {
	// X and Y are the worker model x and momentum y.
	X, Y tensor.Vector
	// GradSum and YSum accumulate Σ∇F(x) and Σy over the current interval:
	// the statistics the parent's γℓ adaptation reads at the boundary (line 9).
	GradSum, YSum tensor.Vector
	// Grad receives the mini-batch gradient at X before every Step.
	Grad tensor.Vector //flvet:allow ckptstate -- per-step scratch: overwritten by the gradient step before Step reads it
}

// LeafVectors is the number of model-sized vectors NewLeaf draws.
const LeafVectors = 5

// NewLeaf builds a leaf at the shared initialization (y⁰ = x⁰, line 1) from
// LeafVectors zero vectors drawn from newVec, so a driver chooses where its
// leaves live (the simulation carves them from the run's slab).
func NewLeaf(x0 tensor.Vector, newVec func() tensor.Vector) *Leaf {
	l := &Leaf{X: newVec(), Y: newVec(), GradSum: newVec(), YSum: newVec(), Grad: newVec()}
	copy(l.X, x0)
	copy(l.Y, x0)
	return l
}

// Step is lines 5–6 of Algorithm 1 in NAG form, given ∇F(X) in Grad:
// y ← x − η∇F(x), x ← y + γ(y − y_prev), extending both interval
// accumulators. It is one pass whose per-element operations, in order, are
// those of the whole-vector composition GradSum.Add; Y = X, AXPY(−η, Grad);
// YSum.Add; X = Y, AXPY(γ, Y), AXPY(−γ, y_prev) — which the goldens pin.
func (l *Leaf) Step(eta, gamma float64) error {
	n := len(l.X)
	if len(l.Y) != n || len(l.GradSum) != n || len(l.YSum) != n || len(l.Grad) != n {
		return fmt.Errorf("core: leaf step over x/y/Σ∇F/Σy/∇F of %d/%d/%d/%d/%d: %w",
			n, len(l.Y), len(l.GradSum), len(l.YSum), len(l.Grad), tensor.ErrDimMismatch)
	}
	x, y, gs, ys, grad := l.X, l.Y[:n], l.GradSum[:n], l.YSum[:n], l.Grad[:n]
	negEta, negGamma := -eta, -gamma
	for i, g := range grad {
		gs[i] += g
		yPrev := y[i]
		yNext := x[i]
		yNext += negEta * g
		y[i] = yNext
		ys[i] += yNext
		xNext := yNext
		xNext += gamma * yNext
		xNext += negGamma * yPrev
		x[i] = xNext
	}
	return nil
}

// Adopt takes over a parent's redistributed momentum and model (lines 14–15
// after the parent's round, 20–23 after a sync further up).
func (l *Leaf) Adopt(y, x tensor.Vector) error {
	if err := l.Y.CopyFrom(y); err != nil {
		return err
	}
	return l.X.CopyFrom(x)
}

// Restart zeroes the interval accumulators: the next report covers the
// interval that starts now.
func (l *Leaf) Restart() {
	l.GradSum.Zero()
	l.YSum.Zero()
}

// Level is what distinguishes one aggregating level of a run from another.
// HierAdMo's edges are {Momentum, Adapt}, HierAdMo-R's {Momentum, Gamma},
// the cloud — and every tier of a momentum-free hierarchy — the zero Level.
type Level struct {
	// Momentum runs the line-13 momentum step; without it the level is the
	// plain average of lines 18–19 and the step's two AXPYs are skipped
	// outright, so an exact −0 in the average survives.
	Momentum bool
	// Adapt recomputes γℓ every round from eq. (6)–(7); otherwise γℓ = Gamma.
	Adapt bool
	Gamma float64
	// Signal and Ceiling parameterize the adaptation: the statistic compared
	// against the accumulated gradient, and the clamp of eq. (7).
	Signal  AdaptSignal
	Ceiling float64
	// Tau is the number of leaf iterations between the level's rounds and X0
	// the shared initialization: SignalYSum is evaluated on Σ(yᵗ − x⁰) =
	// Σyᵗ − τ·x⁰, the accumulated update direction rather than the arbitrary
	// initial position (for zero-initialized models exactly eq. (6); see
	// DESIGN.md §3).
	Tau int
	X0  tensor.Vector
	// Agg, when non-nil, replaces the weighted mean of lines 11–12 with a
	// robust rule. It reduces the y and x streams in one call, so a reporter
	// rejected in one is rejected in both, against the level's previous
	// aggregates as deviation references.
	Agg robust.Aggregator
}

// Vectors is the number of model-sized vectors NewTier draws for a level
// with the given maximum cohort size.
func (lv Level) Vectors(fan int) int {
	n := 4
	if lv.Adapt {
		n += fan
	}
	if lv.Agg != nil {
		n++
	}
	return n
}

// Tier is one aggregating node's Algorithm 1 state plus the scratch its
// round needs.
type Tier struct {
	// YMinus is y_ℓ−, the aggregated child momentum; YPlus is y_ℓ+ as of the
	// previous round; XPlus is the level's model x_ℓ+. YMinus and XPlus are
	// what the node redistributes and reports upward.
	YMinus, YPlus, XPlus tensor.Vector

	// The round's reports, by reporter slot j (the j-th entry of Update's
	// idx): the driver points slot j at that child's vectors — its own state,
	// a received message, a quantized copy — before calling Update. GradSum
	// and YSum are read only when the level adapts; VelRef[j] is the
	// SignalVelocity reference, the momentum child j started its interval
	// from.
	Y, X, GradSum, YSum, VelRef []tensor.Vector //flvet:allow ckptstate -- per-round inputs, pointed at the round's reports before every Update

	lv Level
	//flvet:allow ckptstate -- per-round scratch, overwritten by the round's reduction before it is read
	yPlusNext, refY tensor.Vector
	weights         []float64       //flvet:allow ckptstate -- per-round scratch, refilled from Update's arguments
	signals         []tensor.Vector //flvet:allow ckptstate -- per-round scratch, recomputed from the reports before EdgeCosine reads it
	// dsts, refs and comps are the robust rule's argument headers, assembled
	// once: the vectors they name never rebind.
	dsts, refs []tensor.Vector //flvet:allow ckptstate -- aliases of YMinus, yPlusNext, refY and XPlus, not state of their own
	comps      [][]tensor.Vector
}

// NewTier builds a level's node at the shared initialization (line 2) for
// cohorts of at most fan children, drawing lv.Vectors(fan) zero vectors from
// newVec.
func NewTier(lv Level, fan int, newVec func() tensor.Vector) *Tier {
	// The slot columns share one backing array: a tier is a handful of
	// allocations however many columns its level needs.
	slots := make([]tensor.Vector, 6*fan)
	col := func(c int) []tensor.Vector { return slots[c*fan : (c+1)*fan : (c+1)*fan] }
	t := &Tier{
		YMinus: newVec(), YPlus: newVec(), XPlus: newVec(), yPlusNext: newVec(),
		Y: col(0), X: col(1), GradSum: col(2), YSum: col(3), VelRef: col(4),
		lv: lv, weights: make([]float64, fan),
	}
	copy(t.YMinus, lv.X0)
	copy(t.YPlus, lv.X0)
	copy(t.XPlus, lv.X0)
	if lv.Adapt {
		t.signals = col(5)
		for j := range t.signals {
			t.signals[j] = newVec()
		}
	}
	if lv.Agg != nil {
		t.refY = newVec()
		t.dsts = []tensor.Vector{t.YMinus, t.yPlusNext}
		t.refs = []tensor.Vector{t.refY, t.XPlus}
		t.comps = make([][]tensor.Vector, 2)
	}
	return t
}

// Adopt takes over the parent's aggregated momentum and model after a sync
// further up (lines 20–23); the node's own y_ℓ+ history is kept, as in the
// algorithm text.
func (t *Tier) Adopt(y, x tensor.Vector) error {
	if err := t.YMinus.CopyFrom(y); err != nil {
		return err
	}
	return t.XPlus.CopyFrom(x)
}

// Outcome is what one Update decided.
type Outcome struct {
	// Gamma is the level's momentum factor for the round — eq. (7) of the
	// round's cosine at adaptive levels, the fixed factor otherwise — and
	// Applied = Gamma·carry the factor line 13 actually used.
	Gamma, Applied float64
	// Cos is the eq. (6) cosine (adaptive levels only).
	Cos float64
	// Robust is the robust rule's verdict by reporter slot; it aliases the
	// rule's scratch and is valid until the next Update.
	Robust robust.Stats
}

// Update runs one aggregation round: lines 10–13 of Algorithm 1 at a
// momentum level, lines 18–19 otherwise. full holds the data weights of the
// round's whole cohort by position and idx the ascending positions that
// reported, whose vectors the driver has put in slots 0..len(idx)-1 of the
// tier's input fields. When positions are missing the weights are
// renormalized over the reporters — summed in ascending position, each
// divided once — and with everyone present they are used verbatim, so a full
// round is bitwise a plain data-weighted average. carry scales γℓ for this
// round only: 1 normally, the surviving share when the driver migrates the
// factor across a cohort change.
func (t *Tier) Update(full []float64, idx []int, carry float64) (Outcome, error) {
	n := len(idx)
	if n == 0 || n > len(full) || n > len(t.weights) {
		return Outcome{}, fmt.Errorf("core: %d reporters for a cohort of %d (tier sized for %d)", n, len(full), len(t.weights))
	}
	w := t.weights[:n]
	for j, i := range idx {
		if i < 0 || i >= len(full) {
			return Outcome{}, fmt.Errorf("core: reporter position %d outside a cohort of %d", i, len(full))
		}
		w[j] = full[i]
	}
	if n < len(full) {
		var wsum float64
		for _, wj := range w {
			wsum += wj
		}
		for j := range w {
			w[j] /= wsum
		}
	}
	ys, xs := t.Y[:n], t.X[:n]

	out := Outcome{Gamma: t.lv.Gamma}
	if t.lv.Adapt {
		// Line 10, eq. (6)–(7).
		signals := t.signals[:n]
		for j, sig := range signals {
			var err error
			if t.lv.Signal == SignalVelocity {
				if err = sig.CopyFrom(ys[j]); err == nil {
					err = sig.Sub(t.VelRef[j])
				}
			} else {
				if err = sig.CopyFrom(t.YSum[j]); err == nil {
					err = sig.AXPY(-float64(t.lv.Tau), t.lv.X0)
				}
			}
			if err != nil {
				return Outcome{}, fmt.Errorf("core: reporter %d signal: %w", j, err)
			}
		}
		cos, err := EdgeCosine(w, t.GradSum[:n], signals)
		if err != nil {
			return Outcome{}, err
		}
		out.Cos, out.Gamma = cos, ClampGamma(cos, t.lv.Ceiling)
	}
	out.Applied = out.Gamma * carry

	// Lines 11–12 (18–19): y_ℓ− and the next y_ℓ+, which reduces to the
	// weighted average of the child models (tested in hieradmo_test.go).
	if t.lv.Agg == nil {
		if err := tensor.WeightedSum(t.YMinus, w, ys); err != nil {
			return Outcome{}, err
		}
		if err := tensor.WeightedSum(t.yPlusNext, w, xs); err != nil {
			return Outcome{}, err
		}
	} else {
		// YMinus is both the y stream's reference and its destination, so the
		// previous aggregate is copied out first; XPlus is overwritten only
		// below.
		if err := t.refY.CopyFrom(t.YMinus); err != nil {
			return Outcome{}, err
		}
		t.comps[0], t.comps[1] = ys, xs
		st, err := t.lv.Agg.Aggregate(t.dsts, t.refs, w, t.comps)
		if err != nil {
			return Outcome{}, fmt.Errorf("core: robust %s aggregation: %w", t.lv.Agg.Name(), err)
		}
		out.Robust = st
	}
	// Line 13: x_ℓ+ ← y⁺ + γℓ(y⁺ − y_ℓ+).
	if err := t.XPlus.CopyFrom(t.yPlusNext); err != nil {
		return Outcome{}, err
	}
	if t.lv.Momentum {
		if err := t.XPlus.AXPY(out.Applied, t.yPlusNext); err != nil {
			return Outcome{}, err
		}
		if err := t.XPlus.AXPY(-out.Applied, t.YPlus); err != nil {
			return Outcome{}, err
		}
	}
	return out, t.YPlus.CopyFrom(t.yPlusNext)
}
