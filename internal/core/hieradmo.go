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

// workerRef addresses one worker in the flattened [edge][worker] grid.
type workerRef struct{ l, i int }

// Run implements fl.Algorithm.
func (h *HierAdMo) Run(cfg *fl.Config) (*fl.Result, error) {
	hn, err := fl.NewHarness(cfg)
	if err != nil {
		return nil, err
	}
	res := hn.NewResult(h.Name())

	x0 := hn.InitParams()
	dim := len(x0)

	// All run state — the leaves, a velocity reference per worker, the edge
	// and cloud tiers, the eval model, and the quantized-uplink buffers —
	// lives in one pooled slab, so repeated runs (benchmarks, sweeps, tests)
	// recycle a single arena instead of re-allocating hundreds of model-sized
	// vectors, and a worker's vectors stay cache-line aligned and disjoint
	// from its neighbours'.
	edgeLevel := Level{Momentum: true, Adapt: h.adaptive, Gamma: cfg.GammaEdge,
		Signal: h.signal, Ceiling: h.ceiling, Tau: cfg.Tau, X0: x0}
	cloudLevel := Level{X0: x0}
	numEdges := cfg.NumEdges()
	maxC := 0
	vecCount := (LeafVectors+1)*cfg.NumWorkers() + cloudLevel.Vectors(numEdges) + 1
	for _, shards := range cfg.Edges {
		maxC = max(maxC, len(shards))
		vecCount += edgeLevel.Vectors(len(shards))
	}
	if h.quantBits > 0 {
		vecCount += 4 * maxC
	}
	slab := tensor.GetSlab(vecCount * tensor.Padded(dim))
	defer tensor.PutSlab(slab)
	newVec := func() tensor.Vector { return slab.Alloc(dim) }

	// Algorithm 1 lines 1–2: every leaf and tier starts at x⁰. yStart[l][i] is
	// worker {i,ℓ}'s momentum at the start of its current edge interval, the
	// velocity-signal reference; refs lists the workers in fixed (edge,
	// worker) order for the training fan-out, and evalGrid their models (the
	// headers never rebind) for the evaluation average.
	workers := make([][]*Leaf, numEdges)
	yStart := make([][]tensor.Vector, numEdges)
	evalGrid := make([][]tensor.Vector, numEdges)
	edges := make([]*Tier, numEdges)
	var refs []workerRef
	for l, shards := range cfg.Edges {
		workers[l] = make([]*Leaf, len(shards))
		yStart[l] = make([]tensor.Vector, len(shards))
		evalGrid[l] = make([]tensor.Vector, len(shards))
		for i := range shards {
			workers[l][i] = NewLeaf(x0, newVec)
			yStart[l][i] = newVec()
			copy(yStart[l][i], x0)
			evalGrid[l][i] = workers[l][i].X
			refs = append(refs, workerRef{l: l, i: i})
		}
		edges[l] = NewTier(edgeLevel, len(shards), newVec)
	}
	// The cloud is a non-momentum tier over the edges; their vector headers
	// are stable for the whole run (every update rewrites contents in place),
	// so its inputs are wired once, not per sync.
	cloud := NewTier(cloudLevel, numEdges, newVec)
	for l, e := range edges {
		cloud.Y[l], cloud.X[l] = e.YMinus, e.XPlus
	}
	evalModel := newVec()
	partRNG := rng.New(cfg.Seed).Split(0x9a47)
	// fullIdx is the everyone-reported position list, used verbatim at full
	// participation (the common case draws nothing from the RNG).
	fullIdx := make([]int, max(maxC, numEdges))
	for i := range fullIdx {
		fullIdx[i] = i
	}

	// quantBuf holds the four quantized uplink copies per participant.
	var quantizer *quant.Quantizer
	var quantBuf []tensor.Vector
	if h.quantBits > 0 {
		var qerr error
		quantizer, qerr = quant.New(h.quantBits, cfg.Seed)
		if qerr != nil {
			return nil, qerr
		}
		quantBuf = make([]tensor.Vector, 4*maxC)
		for i := range quantBuf {
			quantBuf[i] = newVec()
		}
	}

	// Crash recovery: register every state vector and RNG stream that
	// determines the trajectory, then resume after the last snapshotted
	// iteration (start = 0 without a snapshot). Scratch vectors are
	// overwritten before use and stay out.
	ck, err := fl.NewCheckpointer(hn, h.Name(), h.variant(), res)
	if err != nil {
		return nil, err
	}
	for l := range workers {
		for i, w := range workers[l] {
			ck.Vector(fmt.Sprintf("worker/%d/%d/x", l, i), w.X)
			ck.Vector(fmt.Sprintf("worker/%d/%d/y", l, i), w.Y)
			ck.Vector(fmt.Sprintf("worker/%d/%d/gradSum", l, i), w.GradSum)
			ck.Vector(fmt.Sprintf("worker/%d/%d/ySum", l, i), w.YSum)
			ck.Vector(fmt.Sprintf("worker/%d/%d/yStart", l, i), yStart[l][i])
		}
		ck.Vector(fmt.Sprintf("edge/%d/xPlus", l), edges[l].XPlus)
		ck.Vector(fmt.Sprintf("edge/%d/yPlus", l), edges[l].YPlus)
		ck.Vector(fmt.Sprintf("edge/%d/yMinus", l), edges[l].YMinus)
	}
	ck.Vector("cloud/x", cloud.XPlus)
	ck.Vector("cloud/y", cloud.YMinus)
	ck.RNG("participation", partRNG)
	if quantizer != nil {
		ck.RNG("quantizer", quantizer.RNG())
	}
	start, err := ck.Restore()
	if err != nil {
		return nil, err
	}

	// Telemetry. Counters and gauges are updated unconditionally (nil-safe,
	// zero-cost on a nil sink); wall-clock reads and trace-field slices are
	// gated so the nil-sink hot loop stays allocation-neutral. Every Emit
	// below runs in sequential code — worker_train events are written from
	// the edge's participant loop, not the goroutine pool — so the event
	// order, and therefore the whole JSONL stream, is deterministic.
	sink := hn.Sink()
	m := sink.M()
	if sink.Tracing() {
		sink.Emit("run_start",
			telemetry.String("alg", h.Name()),
			telemetry.Int("edges", cfg.NumEdges()),
			telemetry.Int("workers", cfg.NumWorkers()),
			telemetry.Int("tau", cfg.Tau),
			telemetry.Int("pi", cfg.Pi),
			telemetry.Int("T", cfg.T),
			telemetry.Int64("seed", int64(cfg.Seed)),
			telemetry.Int("start_t", start))
	}

	poolSize := hn.Workers()
	for t := start + 1; t <= cfg.T; t++ {
		if sink.Tracing() && (t-1)%cfg.Tau == 0 {
			sink.Emit("round_start",
				telemetry.Int("k", (t-1)/cfg.Tau+1),
				telemetry.Int("t", t))
		}
		var iterStart time.Time
		if sink != nil {
			iterStart = time.Now() //flvet:allow detwall -- wall-clock feeds the timing histograms only, never the trace or training state
		}
		// Worker momentum and model updates (lines 5–6, NAG form). The phase
		// is embarrassingly parallel — each worker owns its state vectors and
		// RNG stream — so it fans out over the goroutine pool; every
		// cross-worker reduction below runs after this barrier in fixed
		// worker-index order, keeping the run bit-identical at any pool size.
		if err := parallel.ForEach(len(refs), func(j int) error {
			r := refs[j]
			w := workers[r.l][r.i]
			if _, err := hn.Grad(r.l, r.i, w.X, w.Grad); err != nil {
				return err
			}
			return w.Step(cfg.Eta, cfg.Gamma)
		}, parallel.WithWorkers(poolSize)); err != nil {
			return nil, err
		}
		if sink != nil {
			m.IterationSeconds.Observe(time.Since(iterStart).Seconds()) //flvet:allow detwall -- wall-clock feeds the timing histograms only, never the trace or training state
		}
		m.Round.Set(float64(t))

		// Edge update every τ iterations (lines 7–16). The reductions stay
		// sequential in edge-index order: they cost O(L·dim) against the
		// workers' O(N·batch·model) training phase, and the fixed order keeps
		// the participation RNG, the quantizer's rounding stream, and the
		// gammaStats observer delivery deterministic.
		if t%cfg.Tau == 0 {
			for l := range edges {
				var aggStart time.Time
				if sink != nil {
					aggStart = time.Now() //flvet:allow detwall -- wall-clock feeds the timing histograms only, never the trace or training state
				}
				// Full participation includes everyone and draws nothing from
				// the RNG, so the precomputed index list is used verbatim;
				// partial participation keeps the allocating Perm path to
				// preserve the historical RNG consumption exactly.
				idx := fullIdx[:len(workers[l])]
				if h.participation < 1 {
					idx = h.sampleParticipants(partRNG, len(workers[l]))
				}
				if err := h.edgeRound(hn, t, l, edges[l], workers[l], yStart[l], idx, quantizer, quantBuf); err != nil {
					return nil, err
				}
				if sink != nil {
					m.EdgeAggSeconds.Observe(time.Since(aggStart).Seconds()) //flvet:allow detwall -- wall-clock feeds the timing histograms only, never the trace or training state
				}
			}
		}

		// Cloud update every τπ iterations (lines 17–24).
		if t%(cfg.Tau*cfg.Pi) == 0 {
			var syncStart time.Time
			if sink != nil {
				syncStart = time.Now() //flvet:allow detwall -- wall-clock feeds the timing histograms only, never the trace or training state
			}
			// Lines 18–19, then redistribution (lines 20–23): edges and workers
			// all adopt the cloud-aggregated momentum and model. Interval
			// accumulators are left alone — this round's participants were
			// restarted by their edge a moment ago.
			if _, err := cloud.Update(hn.EdgeWeights, fullIdx[:numEdges], 1); err != nil {
				return nil, fmt.Errorf("core: cloud sync at t=%d: %w", t, err)
			}
			for l, e := range edges {
				if err := e.Adopt(cloud.YMinus, cloud.XPlus); err != nil {
					return nil, err
				}
				for i, w := range workers[l] {
					if err := w.Adopt(cloud.YMinus, cloud.XPlus); err != nil {
						return nil, err
					}
					if err := yStart[l][i].CopyFrom(cloud.YMinus); err != nil {
						return nil, err
					}
				}
			}
			m.CloudSyncs.Inc()
			if sink != nil {
				m.CloudSyncSeconds.Observe(time.Since(syncStart).Seconds()) //flvet:allow detwall -- wall-clock feeds the timing histograms only, never the trace or training state
			}
			if sink.Tracing() {
				sink.Emit("cloud_aggregate",
					telemetry.Int("t", t),
					telemetry.Int("edges", len(edges)))
			}
		}

		if sink.Tracing() && t%cfg.Tau == 0 {
			sink.Emit("round_end",
				telemetry.Int("k", t/cfg.Tau),
				telemetry.Int("t", t))
		}

		if hn.ShouldEval(t) {
			// The global data-weighted worker-model average is the evaluation
			// point between aggregation instants.
			if err := hn.GlobalAverage(evalModel, evalGrid); err != nil {
				return nil, err
			}
			if err := hn.RecordPoint(res, t, evalModel); err != nil {
				return nil, err
			}
		}

		if err := ck.MaybeSnapshot(t); err != nil {
			return nil, err
		}
	}

	// T is a multiple of τπ, so the final cloud model is the run's output.
	if err := hn.Finish(res, cloud.XPlus); err != nil {
		return nil, err
	}
	if sink.Tracing() {
		sink.Emit("run_end",
			telemetry.Float("final_acc", res.FinalAcc),
			telemetry.Float("final_loss", res.FinalLoss))
	}
	return res, nil
}

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

// edgeRound drives lines 9–15 of Algorithm 1 for edge ℓ at t = kτ over the
// participating workers (idx; all workers under full participation): it
// assembles the uplink, hands the round to the kernel, publishes the outcome,
// and redistributes to the participants.
func (h *HierAdMo) edgeRound(hn *fl.Harness, t, l int, e *Tier, ws []*Leaf, yStart []tensor.Vector, idx []int, quantizer *quant.Quantizer, quantBuf []tensor.Vector) error {
	sink := hn.Sink()
	if sink.Tracing() {
		// The workers trained on the goroutine pool, but their per-step
		// losses are re-read here, in fixed participant order, so the trace
		// stays deterministic at every pool size.
		for _, i := range idx {
			sink.Emit("worker_train",
				telemetry.Int("t", t),
				telemetry.Int("edge", l),
				telemetry.Int("worker", i),
				telemetry.Float("loss", hn.LastLoss(l, i)))
		}
	}
	// The uplink payload (Alg. 1 line 9); a configured quantizer compresses
	// shipped copies (in reusable slab vectors), never the workers' local
	// state.
	for j, i := range idx {
		w := ws[i]
		e.Y[j], e.X[j], e.GradSum[j], e.YSum[j], e.VelRef[j] = w.Y, w.X, w.GradSum, w.YSum, yStart[i]
		if quantizer != nil {
			q := quantBuf[4*j : 4*j+4]
			for c, src := range []tensor.Vector{w.Y, w.X, w.GradSum, w.YSum} {
				if err := q[c].CopyFrom(src); err != nil {
					return err
				}
			}
			e.Y[j], e.X[j], e.GradSum[j], e.YSum[j] = q[0], q[1], q[2], q[3]
			for _, v := range q {
				quantizer.Roundtrip(v)
			}
		}
	}
	out, err := e.Update(hn.WorkerWeights[l], idx, 1)
	if err != nil {
		return fmt.Errorf("core: edge %d round at t=%d: %w", l, t, err)
	}
	if h.adaptive {
		if out.Gamma == 0 {
			sink.M().GammaZeroed.Inc()
		}
		sink.M().EdgeCosine.Set(out.Cos)
	}
	if h.gammaStats != nil {
		h.gammaStats(l, out.Applied)
	}
	sink.M().EdgeAggregations.Inc()
	sink.M().GammaEdge.Set(out.Applied)
	if sink.Tracing() {
		fields := []telemetry.Field{
			telemetry.Int("t", t),
			telemetry.Int("edge", l),
			telemetry.Int("participants", len(idx)),
			telemetry.Float("gamma", out.Applied),
		}
		if h.adaptive {
			fields = append(fields, telemetry.Float("cos", out.Cos))
		}
		sink.Emit("edge_aggregate", fields...)
	}
	// Redistribution to the participating workers (lines 14–15) and
	// interval restart; non-participants keep their local state.
	for _, i := range idx {
		w := ws[i]
		if err := w.Adopt(e.YMinus, e.XPlus); err != nil {
			return err
		}
		w.Restart()
		if err := yStart[i].CopyFrom(w.Y); err != nil {
			return err
		}
	}
	return nil
}
