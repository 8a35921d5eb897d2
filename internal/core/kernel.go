package core

import (
	"fmt"
	"math"

	"hieradmo/internal/robust"
	"hieradmo/internal/tensor"
)

// This file defines Algorithm 1's update arithmetic once. The in-process
// simulation (sim.go) and the distributed tier runtime (internal/cluster) are
// drivers around it: they decide who reports, move the vectors, and observe
// the outcome; every floating-point operation of lines 5–6, 10–13 and 18–19
// is defined here, in one fixed order. On amd64 with AVX2 the element-wise
// loops of Step and of the mean run in kernel_amd64.s, four elements a
// register, each element through the same operations in the same order; the
// Go loops here run the elements those bodies leave, everything on other
// CPUs, and are the oracle the assembly is tested against. The kernel emits
// nothing, reads no clock, sends nothing, and allocates nothing after
// construction; it branches on a level's properties, never on its caller.

// vectorBodies routes Step and the mean through their AVX2 bodies where
// internal/tensor's detection found AVX2. Nothing else sets it; tests clear it
// to run the Go loops alone.
var vectorBodies = tensor.HasAVX2()

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
	i := leafStepVector(x, y, gs, ys, grad, negEta, gamma, negGamma)
	leafStep(x[i:], y[i:], gs[i:], ys[i:], grad[i:], negEta, gamma, negGamma)
	return nil
}

// leafStep is Step's Go loop over vectors of len(x) elements.
func leafStep(x, y, gs, ys, grad []float64, negEta, gamma, negGamma float64) {
	n := len(x)
	y, gs, ys, grad = y[:n], gs[:n], ys[:n], grad[:n]
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

// Term is one reporter's eq. (6) term: the cosine between −Σ∇F and the
// level's signal, Σy − τ·x⁰, or y − yStart under SignalVelocity (yStart being
// the momentum the reporter started its interval from). Every input is the
// reporter's own, so each reporter computes its term where its accumulators
// live and only the scalar reaches the parent (Tier.Cos). It is one pass: the
// signal is formed in registers, and the dot product and both squared norms
// run in three accumulators, each in index order — bitwise tensor.NegCosine of
// Σ∇F against the signal materialized by CopyFrom and AXPY (or Sub).
func (lv Level) Term(gradSum, ySum, y, yStart tensor.Vector) (float64, error) {
	a, b, c := ySum, lv.X0, -float64(lv.Tau)
	if lv.Signal == SignalVelocity {
		// y + (−1)·yStart is y − yStart to the bit: negation is exact, and
		// IEEE subtraction is the addition of the negation.
		a, b, c = y, yStart, -1
	}
	n := len(gradSum)
	if len(a) != n || len(b) != n {
		return 0, fmt.Errorf("core: eq. (6) term over Σ∇F/signal/reference of %d/%d/%d: %w",
			n, len(a), len(b), tensor.ErrDimMismatch)
	}
	a, b = a[:n], b[:n]
	var dot, gg, ss float64
	for i, g := range gradSum {
		s := a[i]
		s += c * b[i]
		dot += g * s
		gg += g * g
		ss += s * s
	}
	return tensor.CosineFromDot(-dot, math.Sqrt(gg), math.Sqrt(ss)), nil
}

// Vectors is the number of model-sized vectors NewTier draws for the level.
func (lv Level) Vectors() int {
	if lv.Agg != nil {
		return 5
	}
	return 3
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
	// is for rule hooks only; the kernel reads it nowhere.
	Y, X, GradSum []tensor.Vector //flvet:allow ckptstate -- per-round inputs, pointed at the round's reports before every Update
	// Cos[j] is reporter j's eq. (6) term (Level.Term), read only when the
	// level adapts.
	Cos []float64 //flvet:allow ckptstate -- per-round input, filled from the round's reports before every Update

	lv Level
	//flvet:allow ckptstate -- per-round scratch of the robust rule, overwritten by its reduction before it is read
	yPlusNext, refY tensor.Vector
	weights         []float64 //flvet:allow ckptstate -- per-round scratch, refilled from Update's arguments
	// dsts, refs and comps are the robust rule's argument headers, assembled
	// once: the vectors they name never rebind.
	dsts, refs []tensor.Vector //flvet:allow ckptstate -- aliases of YMinus, yPlusNext, refY and XPlus, not state of their own
	comps      [][]tensor.Vector
}

// NewTier builds a level's node at the shared initialization (line 2) for
// cohorts of at most fan children, drawing lv.Vectors() zero vectors from
// newVec.
func NewTier(lv Level, fan int, newVec func() tensor.Vector) *Tier {
	// The slot columns share one backing array, and the weights and terms
	// another: a tier is a handful of allocations however large its cohort.
	slots := make([]tensor.Vector, 3*fan)
	col := func(c int) []tensor.Vector { return slots[c*fan : (c+1)*fan : (c+1)*fan] }
	scalars := make([]float64, 2*fan)
	t := &Tier{
		YMinus: newVec(), YPlus: newVec(), XPlus: newVec(),
		Y: col(0), X: col(1), GradSum: col(2), Cos: scalars[fan : 2*fan : 2*fan],
		lv: lv, weights: scalars[:fan:fan],
	}
	copy(t.YMinus, lv.X0)
	copy(t.YPlus, lv.X0)
	copy(t.XPlus, lv.X0)
	if lv.Agg != nil {
		t.yPlusNext, t.refY = newVec(), newVec()
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
		// Line 10, eq. (6)–(7): the reporters' terms, weighted and summed in
		// ascending slot order — EdgeCosine's sequence.
		var cos float64
		for j, c := range t.Cos[:n] {
			cos += w[j] * c
		}
		out.Cos, out.Gamma = cos, ClampGamma(cos, t.lv.Ceiling)
	}
	out.Applied = out.Gamma * carry

	if t.lv.Agg == nil {
		return out, t.mean(w, ys, xs, out.Applied)
	}
	// Lines 11–12 under a robust rule. YMinus is both the y stream's reference
	// and its destination, so the previous aggregate is copied out first;
	// XPlus is overwritten only below.
	if err := t.refY.CopyFrom(t.YMinus); err != nil {
		return Outcome{}, err
	}
	t.comps[0], t.comps[1] = ys, xs
	st, err := t.lv.Agg.Aggregate(t.dsts, t.refs, w, t.comps)
	if err != nil {
		return Outcome{}, fmt.Errorf("core: robust %s aggregation: %w", t.lv.Agg.Name(), err)
	}
	out.Robust = st
	xPlus, yPlus := t.XPlus, t.YPlus[:len(t.XPlus)]
	for i, p := range t.yPlusNext[:len(xPlus)] {
		xPlus[i], yPlus[i] = t.line13(p, yPlus[i], out.Applied), p
	}
	return out, nil
}

// line13 is x_ℓ+ ← y⁺ + γℓ(y⁺ − y_ℓ+) for one element, in the order of the
// whole-vector composition it replaced: x = y⁺, x += γ·y⁺, x += (−γ)·y_ℓ+.
// Without momentum it is y⁺ itself, so an exact −0 survives.
func (t *Tier) line13(p, yOld, gamma float64) float64 {
	if !t.lv.Momentum {
		return p
	}
	x := p
	x += gamma * p
	x += -gamma * yOld
	return x
}

// mean is lines 11–13 and the y_ℓ+ roll under the weighted mean, in one pass
// over the reports: per element, y_ℓ− and y⁺ accumulate from +0 over the
// reporters in slot order (tensor.WeightedSum's sequence, which reduces y⁺ to
// the weighted average of the child models — tested in hieradmo_test.go),
// then x_ℓ+ takes line 13 and y_ℓ+ becomes y⁺. Every report is checked
// before the first write, so a rejected round leaves the tier as it was.
func (t *Tier) mean(w []float64, ys, xs []tensor.Vector, gamma float64) error {
	dim := len(t.XPlus)
	for j := range ys {
		if len(ys[j]) != dim || len(xs[j]) != dim {
			return fmt.Errorf("core: reporter %d sends y/x of %d/%d for a model of %d: %w",
				j, len(ys[j]), len(xs[j]), dim, tensor.ErrDimMismatch)
		}
	}
	yMinus, xPlus, yPlus := t.YMinus[:dim], t.XPlus, t.YPlus[:dim]
	// Four elements per step, as in WeightedSum: eight independent
	// accumulators hide the add latency of the reporter chain and amortize
	// each report's slice headers. The vector body, where there is one, takes
	// every whole step first, in the same layout: two registers of four.
	i := meanVector(yMinus, xPlus, yPlus, w, ys, xs, gamma, t.lv.Momentum)
	for ; i+4 <= dim; i += 4 {
		var m0, m1, m2, m3, p0, p1, p2, p3 float64
		for j, wj := range w {
			y, x := ys[j][i:i+4:i+4], xs[j][i:i+4:i+4]
			m0 += wj * y[0]
			m1 += wj * y[1]
			m2 += wj * y[2]
			m3 += wj * y[3]
			p0 += wj * x[0]
			p1 += wj * x[1]
			p2 += wj * x[2]
			p3 += wj * x[3]
		}
		m, xp, yp := yMinus[i:i+4:i+4], xPlus[i:i+4:i+4], yPlus[i:i+4:i+4]
		m[0], m[1], m[2], m[3] = m0, m1, m2, m3
		xp[0], xp[1], xp[2], xp[3] = t.line13(p0, yp[0], gamma), t.line13(p1, yp[1], gamma),
			t.line13(p2, yp[2], gamma), t.line13(p3, yp[3], gamma)
		yp[0], yp[1], yp[2], yp[3] = p0, p1, p2, p3
	}
	for ; i < dim; i++ {
		var m, p float64
		for j, wj := range w {
			m += wj * ys[j][i]
			p += wj * xs[j][i]
		}
		yMinus[i], xPlus[i], yPlus[i] = m, t.line13(p, yPlus[i], gamma), p
	}
	return nil
}
