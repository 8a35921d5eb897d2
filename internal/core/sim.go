package core

import (
	"fmt"
	"time"

	"hieradmo/internal/fl"
	"hieradmo/internal/parallel"
	"hieradmo/internal/quant"
	"hieradmo/internal/rng"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/tensor"
)

// Rule is one row of the algorithm table: everything that distinguishes one
// simulated algorithm from another. Run is the one in-process driver for all
// of them — HierAdMo, HierAdMo-R and the nine baselines of internal/baseline
// — around the kernel of kernel.go; a row whose server and worker rules are
// Algorithm 1 configurations carries no arithmetic of its own.
type Rule struct {
	// Algorithm is the report name (fl.Algorithm's Name).
	Algorithm string
	// Flat selects the two-tier view the paper's fair-comparison setup gives
	// the flat algorithms: every worker reports straight to the cloud every
	// τ·π iterations with weight D(i,ℓ)/D. Otherwise the run is
	// client–edge–cloud: cfg.Edges report to their edge every τ iterations
	// and the edges to a plain-average cloud every τ·π.
	Flat bool
	// ShipsMomentum reports whether a synchronization moves momentum state
	// next to the model (the Fig. 2(h)/(l) payload).
	ShipsMomentum bool
	// Nesterov makes the leaves take the kernel's step with cfg.Gamma;
	// without it they take it with γ = 0, which is plain SGD.
	Nesterov bool
	// Level is the rule of the tier the workers report to; the zero Level is
	// the plain average. The driver fills in Tau and X0, and Gamma
	// (cfg.GammaEdge) at a momentum level.
	Level Level
	// Hooks builds what the rule adds where its server or worker rule is not
	// Algorithm 1 (nil for a pure row), drawing at most Extra(leaves, parents)
	// model-sized vectors from the binding.
	Hooks func(*Binding) Hooks
	Extra func(leaves, parents int) int

	// hier carries the run options that stay HierAdMo's: participation
	// sampling, uplink quantization, the γℓ observer.
	hier *HierAdMo
}

// Hooks are the two places a rule may depart from Algorithm 1.
type Hooks struct {
	// Step replaces Leaf.Step for leaf j (fixed (edge, worker) order), with
	// ∇F(l.X) in l.Grad. It runs on the worker pool: it may write leaf j's
	// state and rule-owned state of leaf j only, and read rule state that is
	// frozen between aggregations.
	Step func(j int, l *Leaf) error
	// After runs when node n of level k (0 = the tier the workers report to)
	// has finished Tier.Update over a cohort with the given weights, before
	// the result is redistributed: what it leaves in t.YMinus and t.XPlus is
	// what the children adopt and the node reports upward.
	After func(k, n int, t *Tier, weights []float64) error
}

// Binding is what a rule's Hooks constructor sees of the run it joins.
type Binding struct {
	Cfg *fl.Config
	X0  tensor.Vector
	// Leaves is the number of workers and Parents the number of nodes they
	// report to (1 in the flat view).
	Leaves, Parents int
	// NewVec draws a zero vector from the run's slab.
	NewVec func() tensor.Vector
	// Ck registers rule-owned state with the run's snapshots (nil-safe).
	Ck *fl.Checkpointer
}

var _ fl.Algorithm = (*Rule)(nil)

// Name implements fl.Algorithm.
func (r *Rule) Name() string { return r.Algorithm }

// Row returns the rule itself; RuleOf finds it through this method.
func (r *Rule) Row() *Rule { return r }

// Tiers is 2 for the flat view and 3 for client–edge–cloud.
func (r *Rule) Tiers() int {
	if r.Flat {
		return 2
	}
	return 3
}

// RuleOf returns the table row behind a simulated algorithm, so callers that
// need a row's facts (tier count, payload) read them from the row the driver
// runs instead of keeping a second table keyed by name.
func RuleOf(alg fl.Algorithm) (*Rule, bool) {
	rowed, ok := alg.(interface{ Row() *Rule })
	if !ok {
		return nil, false
	}
	return rowed.Row(), true
}

// baselineVariant marks the state layout of rules without HierAdMo options in
// the checkpoint fingerprint: their snapshots hold kernel leaves and tiers,
// not the per-algorithm vectors the hand-written loops registered.
const baselineVariant = "layout=leaf-tier"

// simNode is one aggregating node of the run.
type simNode struct {
	tier *Tier
	// weights are the data weights of the node's cohort by position.
	weights []float64 //flvet:allow ckptstate -- config-derived constant, rebuilt identically on resume
	// The cohort: leaves [lo, hi) at level 0, nodes [lo, hi) of the level
	// below otherwise.
	lo, hi int
}

// simLevel is one level of the stack, bottom-up: level 0 aggregates the
// leaves, the last level is the root.
type simLevel struct {
	nodes  []simNode
	period int
	// seconds times one round of a node at this level.
	seconds *telemetry.Histogram
}

// workerRef addresses one worker in cfg.Edges.
type workerRef struct{ l, i int }

// sim is the state of one Run.
type sim struct {
	rule   *Rule
	hn     *fl.Harness
	sink   *telemetry.Sink
	hooks  Hooks
	levels []simLevel
	// Leaf state in fixed (edge, worker) order: the leaves, who they are, and
	// the momentum each started its current interval from (the
	// velocity-signal reference).
	leaves []*Leaf
	refs   []workerRef
	yStart []tensor.Vector
	// fullIdx is the everyone-reported position list.
	fullIdx []int

	partRNG   *rng.RNG
	quantizer *quant.Quantizer
	// quantBuf holds the four quantized uplink copies per participant.
	quantBuf []tensor.Vector //flvet:allow ckptstate -- per-round scratch, refilled from the workers' state before it is read
}

// stopwatch starts timing a phase for a latency histogram; without a sink the
// clock is not read at all.
func stopwatch(sink *telemetry.Sink) time.Time {
	if sink == nil {
		return time.Time{}
	}
	return time.Now() //flvet:allow detwall -- wall-clock feeds the timing histograms only, never the trace or training state
}

// lap records the time since a stopwatch reading.
func lap(h *telemetry.Histogram, start time.Time) {
	if !start.IsZero() {
		h.Observe(time.Since(start).Seconds()) //flvet:allow detwall -- wall-clock feeds the timing histograms only, never the trace or training state
	}
}

// stack lays out a run bottom-up — cohorts, data weights and periods, no state
// yet: the levels, the workers in fixed (edge, worker) order, and D(i,ℓ)/D in
// that order, which is the flat view's cohort weights and, for every rule,
// the weights of the evaluation average. It is the one place that knows which
// shapes a config can take.
func (r *Rule) stack(hn *fl.Harness, m *telemetry.RunMetrics) ([]simLevel, []workerRef, []float64) {
	cfg := hn.Cfg()
	refs := make([]workerRef, 0, cfg.NumWorkers())
	global := make([]float64, 0, cfg.NumWorkers())
	for l, shards := range cfg.Edges {
		for i := range shards {
			refs = append(refs, workerRef{l: l, i: i})
			global = append(global, hn.GlobalWeight(l, i))
		}
	}
	root := simLevel{period: cfg.Tau * cfg.Pi, seconds: m.CloudSyncSeconds}
	if r.Flat {
		root.nodes = []simNode{{weights: global, hi: len(refs)}}
		return []simLevel{root}, refs, global
	}
	edges := simLevel{period: cfg.Tau, seconds: m.EdgeAggSeconds, nodes: make([]simNode, cfg.NumEdges())}
	lo := 0
	for l, shards := range cfg.Edges {
		edges.nodes[l] = simNode{weights: hn.WorkerWeights[l], lo: lo, hi: lo + len(shards)}
		lo += len(shards)
	}
	root.nodes = []simNode{{weights: hn.EdgeWeights, hi: len(edges.nodes)}}
	return []simLevel{edges, root}, refs, global
}

// Run implements fl.Algorithm: the simulation loop every rule shares.
func (r *Rule) Run(cfg *fl.Config) (*fl.Result, error) {
	hn, err := fl.NewHarness(cfg)
	if err != nil {
		return nil, err
	}
	res := hn.NewResult(r.Algorithm)
	x0 := hn.InitParams()
	dim := len(x0)
	sink := hn.Sink()
	m := sink.M()

	levels, refs, global := r.stack(hn, m)
	numLeaves := len(refs)
	top := len(levels) - 1
	// The workers' parents run the rule's level; every level above them is a
	// plain average.
	leafLevel := r.Level
	leafLevel.X0, leafLevel.Tau = x0, levels[0].period
	if leafLevel.Momentum {
		leafLevel.Gamma = cfg.GammaEdge
	}
	levelOf := func(k int) Level {
		if k == 0 {
			return leafLevel
		}
		return Level{X0: x0}
	}

	// All run state — the leaves, a velocity reference per worker, every
	// tier, the eval model, the quantized-uplink buffers and the rule's own
	// vectors — lives in one pooled slab, so repeated runs (benchmarks,
	// sweeps, tests) recycle a single arena instead of re-allocating hundreds
	// of model-sized vectors, and a worker's vectors stay cache-line aligned
	// and disjoint from its neighbours'.
	maxFan := 0
	vecCount := (LeafVectors+1)*numLeaves + 1
	for k, lev := range levels {
		for _, n := range lev.nodes {
			maxFan = max(maxFan, n.hi-n.lo)
			vecCount += levelOf(k).Vectors(n.hi - n.lo)
		}
	}
	quantBits := 0
	if r.hier != nil {
		quantBits = r.hier.quantBits
	}
	if quantBits > 0 {
		vecCount += 4 * maxFan
	}
	if r.Extra != nil {
		vecCount += r.Extra(numLeaves, len(levels[0].nodes))
	}
	slab := tensor.GetSlab(vecCount * tensor.Padded(dim))
	defer tensor.PutSlab(slab)
	newVec := func() tensor.Vector { return slab.Alloc(dim) }

	// Algorithm 1 lines 1–2: every leaf and tier starts at x⁰. xs lists the
	// leaves' models (the headers never rebind) for the evaluation average.
	leaves := make([]*Leaf, numLeaves)
	yStart := make([]tensor.Vector, numLeaves)
	xs := make([]tensor.Vector, numLeaves)
	for j := range leaves {
		leaves[j] = NewLeaf(x0, newVec)
		yStart[j] = newVec()
		copy(yStart[j], x0)
		xs[j] = leaves[j].X
	}
	for k := range levels {
		nodes := levels[k].nodes
		for n := range nodes {
			node := &nodes[n]
			node.tier = NewTier(levelOf(k), node.hi-node.lo, newVec)
			if k == 0 {
				continue
			}
			// A level above the leaves reads its children's aggregates, whose
			// vector headers are stable for the whole run (every update
			// rewrites contents in place): its inputs are wired once.
			for j, child := range levels[k-1].nodes[node.lo:node.hi] {
				node.tier.Y[j], node.tier.X[j] = child.tier.YMinus, child.tier.XPlus
			}
		}
	}
	evalModel := newVec()
	partRNG := rng.New(cfg.Seed).Split(0x9a47)
	fullIdx := make([]int, maxFan)
	for i := range fullIdx {
		fullIdx[i] = i
	}
	var quantizer *quant.Quantizer
	var quantBuf []tensor.Vector
	if quantBits > 0 {
		if quantizer, err = quant.New(quantBits, cfg.Seed); err != nil {
			return nil, err
		}
		quantBuf = make([]tensor.Vector, 4*maxFan)
		for i := range quantBuf {
			quantBuf[i] = newVec()
		}
	}

	s := &sim{rule: r, hn: hn, sink: sink, levels: levels, leaves: leaves, refs: refs, yStart: yStart,
		fullIdx: fullIdx, partRNG: partRNG, quantizer: quantizer, quantBuf: quantBuf}

	// Crash recovery: register the run's state, then resume after the last
	// snapshotted iteration (start = 0 without a snapshot). The variant folds
	// what lives outside fl.Config into the fingerprint.
	variant := baselineVariant
	if r.hier != nil {
		variant = r.hier.variant()
	}
	ck, err := fl.NewCheckpointer(hn, r.Algorithm, variant, res)
	if err != nil {
		return nil, err
	}
	s.register(ck)
	if r.Hooks != nil {
		s.hooks = r.Hooks(&Binding{Cfg: cfg, X0: x0, Leaves: numLeaves,
			Parents: len(levels[0].nodes), NewVec: newVec, Ck: ck})
	}
	start, err := ck.Restore()
	if err != nil {
		return nil, err
	}

	// Telemetry. Counters and gauges are updated unconditionally (nil-safe,
	// zero-cost on a nil sink); wall-clock reads and trace-field slices are
	// gated so the nil-sink hot loop stays allocation-neutral. Every Emit
	// runs in sequential code — worker_train events are written from the
	// round's participant loop, not the goroutine pool — so the event order,
	// and therefore the whole JSONL stream, is deterministic.
	if sink.Tracing() {
		sink.Emit("run_start",
			telemetry.String("alg", r.Algorithm),
			telemetry.Int("edges", cfg.NumEdges()),
			telemetry.Int("workers", cfg.NumWorkers()),
			telemetry.Int("tau", cfg.Tau),
			telemetry.Int("pi", cfg.Pi),
			telemetry.Int("T", cfg.T),
			telemetry.Int64("seed", int64(cfg.Seed)),
			telemetry.Int("start_t", start))
	}

	// Worker momentum and model updates (lines 5–6, NAG form). The phase is
	// embarrassingly parallel — each worker owns its state vectors and RNG
	// stream — so it fans out over the goroutine pool; every cross-worker
	// reduction runs after this barrier in fixed worker-index order, keeping
	// the run bit-identical at any pool size.
	gamma := 0.0
	if r.Nesterov {
		gamma = cfg.Gamma
	}
	train := func(j int) error {
		w := leaves[j]
		if _, err := hn.Grad(refs[j].l, refs[j].i, w.X, w.Grad); err != nil {
			return err
		}
		if s.hooks.Step != nil {
			return s.hooks.Step(j, w)
		}
		return w.Step(cfg.Eta, gamma)
	}
	pool := parallel.WithWorkers(hn.Workers())
	roundLen := levels[0].period

	for t := start + 1; t <= cfg.T; t++ {
		if sink.Tracing() && (t-1)%roundLen == 0 {
			sink.Emit("round_start",
				telemetry.Int("k", (t-1)/roundLen+1),
				telemetry.Int("t", t))
		}
		iterStart := stopwatch(sink)
		if err := parallel.ForEach(numLeaves, train, pool); err != nil {
			return nil, err
		}
		lap(m.IterationSeconds, iterStart)
		m.Round.Set(float64(t))

		// Aggregation, bottom-up: a level's nodes run their round (lines 7–16
		// at the workers' parents, 17–24 above) every period iterations. The
		// reductions stay sequential in node-index order: they cost O(L·dim)
		// against the workers' O(N·batch·model) training phase, and the fixed
		// order keeps the participation RNG, the quantizer's rounding stream,
		// and the γℓ observer delivery deterministic.
		for k := range levels {
			if t%levels[k].period != 0 {
				continue
			}
			for n := range levels[k].nodes {
				if err := s.round(t, k, n); err != nil {
					return nil, err
				}
			}
		}

		if sink.Tracing() && t%roundLen == 0 {
			sink.Emit("round_end",
				telemetry.Int("k", t/roundLen),
				telemetry.Int("t", t))
		}

		if hn.ShouldEval(t) {
			// The global data-weighted worker-model average is the evaluation
			// point between aggregation instants.
			if err := tensor.WeightedSum(evalModel, global, xs); err != nil {
				return nil, fmt.Errorf("core: evaluation average at t=%d: %w", t, err)
			}
			if err := hn.RecordPoint(res, t, evalModel); err != nil {
				return nil, err
			}
		}

		if err := ck.MaybeSnapshot(t); err != nil {
			return nil, err
		}
	}

	// T is a multiple of τπ, so the root's final model is the run's output.
	if err := hn.Finish(res, levels[top].nodes[0].tier.XPlus); err != nil {
		return nil, err
	}
	if sink.Tracing() {
		sink.Emit("run_end",
			telemetry.Float("final_acc", res.FinalAcc),
			telemetry.Float("final_loss", res.FinalLoss))
	}
	return res, nil
}

// register names every state vector and RNG stream that determines the
// trajectory for the run's snapshots; scratch vectors are overwritten before
// use and stay out. HierAdMo's entry names predate the driver and are part of
// its snapshot format.
func (s *sim) register(ck *fl.Checkpointer) {
	if ck == nil {
		return // entry names are only worth formatting when something snapshots them
	}
	for j, w := range s.leaves {
		at := fmt.Sprintf("worker/%d/%d/", s.refs[j].l, s.refs[j].i)
		ck.Vector(at+"x", w.X)
		ck.Vector(at+"y", w.Y)
		ck.Vector(at+"gradSum", w.GradSum)
		ck.Vector(at+"ySum", w.YSum)
		ck.Vector(at+"yStart", s.yStart[j])
	}
	for k, lev := range s.levels {
		for n, node := range lev.nodes {
			if k == len(s.levels)-1 {
				ck.Vector("cloud/x", node.tier.XPlus)
				ck.Vector("cloud/y", node.tier.YMinus)
				if node.tier.lv.Momentum {
					// Only a momentum level reads its y₊ history back.
					ck.Vector("cloud/yPlus", node.tier.YPlus)
				}
				continue
			}
			ck.Vector(fmt.Sprintf("edge/%d/xPlus", n), node.tier.XPlus)
			ck.Vector(fmt.Sprintf("edge/%d/yPlus", n), node.tier.YPlus)
			ck.Vector(fmt.Sprintf("edge/%d/yMinus", n), node.tier.YMinus)
		}
	}
	ck.RNG("participation", s.partRNG)
	if s.quantizer != nil {
		ck.RNG("quantizer", s.quantizer.RNG())
	}
}

// round drives one aggregation of node n at level k at iteration t: it
// assembles the reports, hands the round to the kernel and the rule's hook,
// publishes the outcome, and redistributes.
func (s *sim) round(t, k, n int) error {
	lev := &s.levels[k]
	node := &lev.nodes[n]
	tier := node.tier
	started := stopwatch(s.sink)
	idx := s.fullIdx[:node.hi-node.lo]
	if k == 0 {
		// Full participation includes everyone and draws nothing from the
		// RNG, so the precomputed index list is used verbatim; partial
		// participation keeps the allocating Perm path to preserve the
		// historical RNG consumption exactly.
		if h := s.rule.hier; h != nil && h.participation < 1 {
			idx = h.sampleParticipants(s.partRNG, len(idx))
		}
		if err := s.uplink(t, node, idx); err != nil {
			return err
		}
	}
	out, err := tier.Update(node.weights, idx, 1)
	if err != nil {
		return fmt.Errorf("core: level %d node %d round at t=%d: %w", k, n, t, err)
	}
	if s.hooks.After != nil {
		if err := s.hooks.After(k, n, tier, node.weights); err != nil {
			return fmt.Errorf("core: %s hook at t=%d: %w", s.rule.Algorithm, t, err)
		}
	}

	sink := s.sink
	m := sink.M()
	if k == len(s.levels)-1 {
		m.CloudSyncs.Inc()
		if sink.Tracing() {
			// edges counts the reports the cloud averaged: edge nodes, or the
			// workers themselves in the flat view.
			sink.Emit("cloud_aggregate",
				telemetry.Int("t", t),
				telemetry.Int("edges", len(idx)))
		}
	} else {
		adapt := tier.lv.Adapt
		if adapt {
			if out.Gamma == 0 {
				m.GammaZeroed.Inc()
			}
			m.EdgeCosine.Set(out.Cos)
		}
		if h := s.rule.hier; h != nil && h.gammaStats != nil {
			h.gammaStats(n, out.Applied)
		}
		m.EdgeAggregations.Inc()
		m.GammaEdge.Set(out.Applied)
		if sink.Tracing() {
			fields := []telemetry.Field{
				telemetry.Int("t", t),
				telemetry.Int("edge", n),
				telemetry.Int("participants", len(idx)),
				telemetry.Float("gamma", out.Applied),
			}
			if adapt {
				fields = append(fields, telemetry.Float("cos", out.Cos))
			}
			sink.Emit("edge_aggregate", fields...)
		}
	}

	if k == 0 {
		// Redistribution to the participating workers (lines 14–15) and
		// interval restart; non-participants keep their local state.
		for _, i := range idx {
			j := node.lo + i
			w := s.leaves[j]
			if err := w.Adopt(tier.YMinus, tier.XPlus); err != nil {
				return err
			}
			w.Restart()
			if err := s.yStart[j].CopyFrom(w.Y); err != nil {
				return err
			}
		}
	} else {
		// Lines 20–23: every tier and worker below adopts the aggregate.
		// Interval accumulators are left alone — this round's participants
		// were restarted by their parent a moment ago.
		lo, hi := node.lo, node.hi
		for below := k - 1; below >= 0; below-- {
			nodes := s.levels[below].nodes[lo:hi]
			for c := range nodes {
				if err := nodes[c].tier.Adopt(tier.YMinus, tier.XPlus); err != nil {
					return err
				}
			}
			lo, hi = nodes[0].lo, nodes[len(nodes)-1].hi
		}
		for j := lo; j < hi; j++ {
			if err := s.leaves[j].Adopt(tier.YMinus, tier.XPlus); err != nil {
				return err
			}
			if err := s.yStart[j].CopyFrom(tier.YMinus); err != nil {
				return err
			}
		}
	}
	lap(lev.seconds, started)
	return nil
}

// uplink assembles the reports of a leaf-parent round (Alg. 1 line 9) from
// the participating workers idx of node: it traces their training losses and
// points the tier's report slots at their state — or, under a configured
// quantizer, at compressed copies (in reusable slab vectors), never the
// workers' local state.
func (s *sim) uplink(t int, node *simNode, idx []int) error {
	if s.sink.Tracing() {
		// The workers trained on the goroutine pool, but their per-step
		// losses are re-read here, in fixed participant order, so the trace
		// stays deterministic at every pool size.
		for _, i := range idx {
			r := s.refs[node.lo+i]
			s.sink.Emit("worker_train",
				telemetry.Int("t", t),
				telemetry.Int("edge", r.l),
				telemetry.Int("worker", r.i),
				telemetry.Float("loss", s.hn.LastLoss(r.l, r.i)))
		}
	}
	e := node.tier
	for j, i := range idx {
		w := s.leaves[node.lo+i]
		e.Y[j], e.X[j], e.GradSum[j], e.YSum[j], e.VelRef[j] = w.Y, w.X, w.GradSum, w.YSum, s.yStart[node.lo+i]
		if s.quantizer != nil {
			q := s.quantBuf[4*j : 4*j+4]
			for c, src := range []tensor.Vector{w.Y, w.X, w.GradSum, w.YSum} {
				if err := q[c].CopyFrom(src); err != nil {
					return err
				}
			}
			e.Y[j], e.X[j], e.GradSum[j], e.YSum[j] = q[0], q[1], q[2], q[3]
			for _, v := range q {
				s.quantizer.Roundtrip(v)
			}
		}
	}
	return nil
}
