package fl

import (
	"fmt"

	"hieradmo/internal/dataset"
	"hieradmo/internal/model"
	"hieradmo/internal/parallel"
	"hieradmo/internal/rng"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/tensor"
)

// Harness is the shared per-run runtime every algorithm builds on: validated
// configuration, data-size weights at every tier, per-worker seeded
// mini-batch streams, and curve recording. One Harness serves exactly one
// Run invocation.
type Harness struct {
	cfg *Config

	// EdgeWeights[l] = Dℓ/D.
	//flvet:allow ckptstate -- config-derived constant, rebuilt identically by NewHarness on resume
	EdgeWeights []float64
	// WorkerWeights[l][i] = D(i,ℓ)/Dℓ.
	//flvet:allow ckptstate -- config-derived constant, rebuilt identically by NewHarness on resume
	WorkerWeights [][]float64

	// oracles[l][i] is worker {i,ℓ}'s gradient source; like the lastLoss slot
	// it is owned by that worker's goroutine.
	oracles  [][]GradOracle
	lastLoss [][]float64
	evalSet  *dataset.Dataset
	sink     *telemetry.Sink
}

// NewHarness validates cfg and prepares the run state.
func NewHarness(cfg *Config) (*Harness, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Harness{
		cfg:           cfg,
		EdgeWeights:   make([]float64, cfg.NumEdges()),
		WorkerWeights: make([][]float64, cfg.NumEdges()),
		oracles:       make([][]GradOracle, cfg.NumEdges()),
		lastLoss:      make([][]float64, cfg.NumEdges()),
		sink:          cfg.Telemetry,
	}
	total := 0
	edgeTotals := make([]int, cfg.NumEdges())
	for l, edge := range cfg.Edges {
		for _, shard := range edge {
			edgeTotals[l] += shard.Len()
		}
		total += edgeTotals[l]
	}
	for l, edge := range cfg.Edges {
		h.EdgeWeights[l] = float64(edgeTotals[l]) / float64(total)
		h.WorkerWeights[l] = make([]float64, len(edge))
		h.oracles[l] = make([]GradOracle, len(edge))
		h.lastLoss[l] = make([]float64, len(edge))
		for i, shard := range edge {
			h.WorkerWeights[l][i] = float64(shard.Len()) / float64(edgeTotals[l])
			h.oracles[l][i] = NewGradOracle(cfg, shard, WorkerSampler(cfg.Seed, l, i), h.sink)
		}
	}
	h.evalSet = cfg.Test
	if cfg.EvalSamples > 0 && cfg.EvalSamples < cfg.Test.Len() {
		idx := make([]int, cfg.EvalSamples)
		for i := range idx {
			idx[i] = i
		}
		h.evalSet = cfg.Test.Subset(idx)
	}
	return h, nil
}

// WorkerSampler returns the deterministic mini-batch stream of worker
// {i,ℓ} for a run seed. It is exported so alternative execution engines
// (the distributed cluster runtime) can reproduce the exact batch sequence
// of the in-process simulation, making results bit-comparable.
func WorkerSampler(seed uint64, l, i int) *rng.RNG {
	return rng.New(seed).Split(uint64(l)<<20 | uint64(i)<<4 | 1)
}

// Cfg returns the validated configuration.
func (h *Harness) Cfg() *Config { return h.cfg }

// Sink returns the run's telemetry sink. It may be nil; every sink
// method is nil-safe and free, so algorithms use it unconditionally.
func (h *Harness) Sink() *telemetry.Sink { return h.sink }

// Workers returns the effective goroutine-pool size for the parallel
// local-training phase: cfg.Workers, defaulting to runtime.GOMAXPROCS(0)
// when unset. Algorithms pass it to parallel.ForEach via
// parallel.WithWorkers.
func (h *Harness) Workers() int { return parallel.Resolve(h.cfg.Workers) }

// EvalSet returns the (possibly EvalSamples-capped) test subset used for
// curve evaluation.
func (h *Harness) EvalSet() *dataset.Dataset { return h.evalSet }

// GlobalWeight returns D(i,ℓ)/D, the worker's weight in the global
// objective.
func (h *Harness) GlobalWeight(l, i int) float64 {
	return h.EdgeWeights[l] * h.WorkerWeights[l][i]
}

// InitParams draws the common initial model x⁰ shared by all workers
// (Algorithm 1 line 1), deterministically from the config seed.
func (h *Harness) InitParams() tensor.Vector {
	return h.cfg.Model.Init(rng.New(h.cfg.Seed).Split(0x1717))
}

// GradOracle is one worker's stochastic-gradient source: its shard, its
// seeded mini-batch stream, and the batch buffer the stream refills. It is
// the one place a training gradient is evaluated — the simulation's Harness
// and the cluster runtime's leaves both step through it — so batching,
// clipping and the step counters cannot drift between the two.
type GradOracle struct {
	cfg   *Config
	shard *dataset.Dataset
	// Sampler is the mini-batch stream; owners register it with their
	// checkpoint so a resumed run draws the same batches.
	Sampler *rng.RNG
	batch   []dataset.Sample
	sink    *telemetry.Sink
}

// NewGradOracle binds a shard and its mini-batch stream to the run's model,
// batch size and clip norm. The value is meant to be stored once and used in
// place (the harness keeps a worker grid of them): copies would share the
// stream and the batch buffer.
func NewGradOracle(cfg *Config, shard *dataset.Dataset, sampler *rng.RNG, sink *telemetry.Sink) GradOracle {
	return GradOracle{cfg: cfg, shard: shard, Sampler: sampler, sink: sink}
}

// Grad draws the next mini-batch and overwrites grad with the mean stochastic
// gradient at params, rescaled to cfg.ClipNorm when that is set and
// exceeded; it returns the mini-batch loss. After the first call the batch
// buffer is reused, so steady-state calls allocate nothing.
func (o *GradOracle) Grad(params, grad tensor.Vector) (float64, error) {
	batch, err := o.shard.BatchInto(o.Sampler, o.cfg.BatchSize, o.batch)
	if err != nil {
		return 0, fmt.Errorf("batch: %w", err)
	}
	o.batch = batch
	loss, err := o.cfg.Model.LossGrad(params, batch, grad)
	if err != nil {
		return 0, fmt.Errorf("gradient: %w", err)
	}
	if o.cfg.ClipNorm > 0 {
		if norm := grad.Norm(); norm > o.cfg.ClipNorm {
			grad.Scale(o.cfg.ClipNorm / norm)
			o.sink.M().GradClips.Inc()
		}
	}
	o.sink.M().WorkerSteps.Inc()
	return loss, nil
}

// Grad overwrites grad with worker {i,ℓ}'s next mini-batch gradient at
// params (see GradOracle.Grad); the mini-batch loss is recorded for curve
// reporting and returned.
//
// Grad is safe for concurrent use across DISTINCT workers: each worker
// {i,ℓ} owns its oracle and its lastLoss slot, so parallel calls never share
// mutable harness state (the model's workspace pool is itself
// concurrency-safe, see internal/nn). Two concurrent calls for the same
// worker race on both; the parallel round loops therefore fan out at most
// one goroutine per worker. WeightedLoss reads every lastLoss slot and must
// only be called after the round's Grad calls have been joined.
func (h *Harness) Grad(l, i int, params, grad tensor.Vector) (float64, error) {
	loss, err := h.oracles[l][i].Grad(params, grad)
	if err != nil {
		return 0, fmt.Errorf("fl: worker {%d,%d} %w", i, l, err)
	}
	h.lastLoss[l][i] = loss
	return loss, nil
}

// LastLoss returns worker {i,ℓ}'s most recent mini-batch loss. Like
// WeightedLoss it must only be read after the round's Grad calls have
// been joined; trace emission uses it so worker_train events can be
// written from sequential code (keeping event order deterministic) even
// when the training itself ran on a goroutine pool.
func (h *Harness) LastLoss(l, i int) float64 { return h.lastLoss[l][i] }

// WeightedLoss returns the data-weighted average of every worker's latest
// mini-batch loss — the curve's training-loss signal.
func (h *Harness) WeightedLoss() float64 {
	var total float64
	for l := range h.lastLoss {
		for i, loss := range h.lastLoss[l] {
			total += h.GlobalWeight(l, i) * loss
		}
	}
	return total
}

// EdgeAverage overwrites dst with the Dᵢ/Dℓ-weighted average of the workers'
// vectors at edge ℓ.
func (h *Harness) EdgeAverage(dst tensor.Vector, l int, vecs []tensor.Vector) error {
	if err := tensor.WeightedSum(dst, h.WorkerWeights[l], vecs); err != nil {
		return fmt.Errorf("fl: edge %d average: %w", l, err)
	}
	return nil
}

// NewResult prepares a Result for the named algorithm.
func (h *Harness) NewResult(name string) *Result {
	return &Result{Algorithm: name, Iterations: h.cfg.T}
}

// ShouldEval reports whether iteration t is a curve-recording instant.
func (h *Harness) ShouldEval(t int) bool {
	return h.cfg.EvalEvery > 0 && t%h.cfg.EvalEvery == 0 && t != h.cfg.T
}

// RecordPoint evaluates params on the (possibly capped) test subset and
// appends a curve point for iteration t. Evaluation fans out over the same
// goroutine pool as local training — serial eval would bound the multicore
// speedup of short-τ runs (Amdahl) even with a perfectly parallel worker
// phase.
func (h *Harness) RecordPoint(res *Result, t int, params tensor.Vector) error {
	acc, err := model.AccuracyParallel(h.cfg.Model, params, h.evalSet, h.Workers())
	if err != nil {
		return fmt.Errorf("fl: eval at t=%d: %w", t, err)
	}
	loss := h.WeightedLoss()
	res.Curve = append(res.Curve, Point{Iter: t, TestAcc: acc, TrainLoss: loss})
	h.recordEval(t, acc, loss, false)
	return nil
}

// recordEval publishes one curve point to the sink: gauges always, a
// trace event when tracing is on.
func (h *Harness) recordEval(t int, acc, loss float64, final bool) {
	m := h.sink.M()
	m.Evals.Inc()
	m.TestAccuracy.Set(acc)
	m.TrainLoss.Set(loss)
	if h.sink.Tracing() {
		h.sink.Emit("eval",
			telemetry.Int("t", t),
			telemetry.Float("acc", acc),
			telemetry.Float("loss", loss),
			telemetry.Bool("final", final))
	}
}

// Finish evaluates the final model on the full test set and appends the
// terminal curve point at t = T.
func (h *Harness) Finish(res *Result, params tensor.Vector) error {
	acc, err := model.AccuracyParallel(h.cfg.Model, params, h.cfg.Test, h.Workers())
	if err != nil {
		return fmt.Errorf("fl: final eval: %w", err)
	}
	res.FinalAcc = acc
	res.FinalLoss = h.WeightedLoss()
	res.Curve = append(res.Curve, Point{Iter: h.cfg.T, TestAcc: acc, TrainLoss: res.FinalLoss})
	h.recordEval(h.cfg.T, acc, res.FinalLoss, true)
	return nil
}
