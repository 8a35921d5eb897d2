package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/parallel"
	"hieradmo/internal/quant"
	"hieradmo/internal/rng"
	"hieradmo/internal/robust"
	"hieradmo/internal/tensor"
	"hieradmo/internal/transport"
)

// The layer probes time public calls of single layers at the workloads'
// shapes: the CNN's two convolution GEMMs, batch-8 gradients, and
// 15380-element vectors in the cohort sizes the sync task uses. GFLOP/s are
// CPU-only operation counts over time.

const (
	probeDim   = 15380 // parameters of the sync task's model
	probeBatch = 8
	probeBits  = 8
)

// probeBudget is the measuring time of one probe.
const probeBudget = 100 * time.Millisecond

// perCall returns the seconds per call of fn in the fastest of five batches
// that together fill budget; a zero budget times one call (the smoke test).
// The host only ever slows a batch down, so the fastest is the one least
// disturbed (cmd/benchjson merges its runs best-of-N for the same reason).
func perCall(budget time.Duration, fn func() error) (float64, error) {
	if err := fn(); err != nil { // warm caches and lazy set-up
		return 0, err
	}
	start := now()
	if err := fn(); err != nil {
		return 0, err
	}
	one := since(start)
	if budget <= 0 {
		return one, nil
	}
	const batches = 5
	n := 1
	if one > 0 {
		n = int(budget.Seconds() / batches / one)
	}
	if n < 1 {
		n = 1
	}
	best := math.Inf(1)
	for b := 0; b < batches; b++ {
		start = now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		best = math.Min(best, since(start)/float64(n))
	}
	return best, nil
}

func randomVector(r *rng.RNG, n int) tensor.Vector {
	v := tensor.NewVector(n)
	for i := range v {
		v[i] = r.Norm()
	}
	return v
}

func randomVectors(r *rng.RNG, count, n int) []tensor.Vector {
	vs := make([]tensor.Vector, count)
	for i := range vs {
		vs[i] = randomVector(r, n)
	}
	return vs
}

// gemmShape is one convolution as the GEMM it lowers to: out channels ×
// (in channels · 3·3) times (in channels · 3·3) × output positions.
type gemmShape struct{ m, k, n int }

// cnnGEMMs are the two conv layers of model.NewCNN on the 1×14×14 task.
var cnnGEMMs = []gemmShape{{m: 8, k: 9, n: 196}, {m: 16, k: 72, n: 49}}

// runProbes measures every layer probe and returns the values by metric
// name. cnn and logit are the two task configs built from the run's seed.
func runProbes(cnn, logit *fl.Config, seed uint64, procs int, budget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	r := rng.New(seed).Split(0xbe7c)
	record := func(name string, scale float64, fn func() error) error {
		sec, err := perCall(budget, fn)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		out[name] = sec * scale
		return nil
	}
	const us, ms = 1e6, 1e3

	// tensor: both conv GEMMs back to back, forward (GEMMBias) and weight
	// gradient (GEMMAddTransB); the rate is their summed operation count.
	type gemmBufs struct{ a, b, bias, dst, grad []float64 }
	bufs := make([]gemmBufs, len(cnnGEMMs))
	flops := 0.0
	for i, s := range cnnGEMMs {
		bufs[i] = gemmBufs{
			a: randomVector(r, s.m*s.k), b: randomVector(r, s.k*s.n), bias: randomVector(r, s.m),
			dst: make([]float64, s.m*s.n), grad: make([]float64, s.m*s.k),
		}
		flops += 2 * float64(s.m*s.n*s.k)
	}
	sec, err := perCall(budget, func() error {
		for i, s := range cnnGEMMs {
			tensor.GEMMBias(bufs[i].dst, bufs[i].a, bufs[i].b, bufs[i].bias, s.m, s.n, s.k, 9)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["tensor.gemm_bias_gflops"] = flops / sec / 1e9
	sec, err = perCall(budget, func() error {
		for i, s := range cnnGEMMs {
			// grad (m×k) += dst (m×n) · patchesᵀ, patches stored k×n.
			tensor.GEMMAddTransB(bufs[i].grad, bufs[i].dst, bufs[i].b, s.m, s.k, s.n)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["tensor.gemm_addtransb_gflops"] = flops / sec / 1e9

	// model and dataset: one batch-8 step of each task.
	sampler := rng.New(seed).Split(0x5a3)
	var batch []dataset.Sample
	shard := cnn.Edges[0][0]
	if err := record("dataset.batch_us", us, func() error {
		var err error
		batch, err = shard.BatchInto(sampler, probeBatch, batch)
		return err
	}); err != nil {
		return nil, err
	}
	cnnParams := cnn.Model.Init(rng.New(seed))
	cnnGrad := tensor.NewVector(cnn.Model.Dim())
	if err := record("model.cnn_lossgrad_us", us, func() error {
		_, err := cnn.Model.LossGrad(cnnParams, batch, cnnGrad)
		return err
	}); err != nil {
		return nil, err
	}
	if err := record("model.cnn_predict_us", us, func() error {
		_, err := cnn.Model.Predict(cnnParams, batch[0].X)
		return err
	}); err != nil {
		return nil, err
	}
	logitBatch, err := logit.Edges[0][0].Batch(sampler, probeBatch)
	if err != nil {
		return nil, err
	}
	logitParams := randomVector(r, logit.Model.Dim())
	logitGrad := tensor.NewVector(logit.Model.Dim())
	if err := record("model.logistic_lossgrad_us", us, func() error {
		_, err := logit.Model.LossGrad(logitParams, logitBatch, logitGrad)
		return err
	}); err != nil {
		return nil, err
	}

	// core, robust, quant: the per-round reductions at model size.
	edgeWeights := []float64{0.25, 0.25, 0.25, 0.25}
	gradSums, signals := randomVectors(r, 4, probeDim), randomVectors(r, 4, probeDim)
	if err := record("core.edge_cosine_us", us, func() error {
		_, err := core.EdgeCosine(edgeWeights, gradSums, signals)
		return err
	}); err != nil {
		return nil, err
	}
	cohort := [][]tensor.Vector{randomVectors(r, 8, probeDim)}
	cohortWeights := make([]float64, 8)
	for i := range cohortWeights {
		cohortWeights[i] = 0.125
	}
	dsts, prev := randomVectors(r, 1, probeDim), randomVectors(r, 1, probeDim)
	for _, rule := range []robust.Kind{robust.Mean, robust.Median} {
		agg, err := robust.New(robust.Spec{Kind: rule})
		if err != nil {
			return nil, err
		}
		if err := record("robust."+agg.Name()+"_us", us, func() error {
			_, err := agg.Aggregate(dsts, prev, cohortWeights, cohort)
			return err
		}); err != nil {
			return nil, err
		}
	}
	quantizer, err := quant.New(probeBits, seed)
	if err != nil {
		return nil, err
	}
	quantized := randomVector(r, probeDim)
	if err := record("quant.roundtrip_us", us, func() error {
		quantizer.Roundtrip(quantized)
		return nil
	}); err != nil {
		return nil, err
	}

	// checkpoint: the snapshot codec on a worker-sized state, in memory.
	state := checkpoint.NewState("probe", 1)
	for i, v := range randomVectors(r, 4, probeDim) {
		state.Vectors["v"+strconv.Itoa(i)] = v
	}
	var snapshot bytes.Buffer
	if err := record("checkpoint.write_ms", ms, func() error {
		snapshot.Reset()
		return checkpoint.Write(&snapshot, state)
	}); err != nil {
		return nil, err
	}
	if err := record("checkpoint.read_ms", ms, func() error {
		_, err := checkpoint.Read(bytes.NewReader(snapshot.Bytes()))
		return err
	}); err != nil {
		return nil, err
	}

	// parallel: fan-out and join of the 8 per-round worker tasks.
	if err := record("parallel.foreach_us", us, func() error {
		return parallel.ForEach(8, func(int) error { return nil }, parallel.WithWorkers(procs))
	}); err != nil {
		return nil, err
	}

	// transport: ping-pong of one worker report (4 × 15380 floats).
	trips := 40
	if budget <= 0 {
		trips = 1
	}
	report := transport.Message{Kind: "probe", Vectors: make([][]float64, 4)}
	for i := range report.Vectors {
		report.Vectors[i] = randomVector(r, probeDim)
	}
	memRTT, err := pingPong(transport.NewMemoryNetwork(), report, trips)
	if err != nil {
		return nil, fmt.Errorf("probe transport.memory_rtt_us: %w", err)
	}
	tcpRTT, err := pingPong(transport.NewTCPNetwork(), report, trips)
	if err != nil {
		return nil, fmt.Errorf("probe transport.tcp_rtt_us: %w", err)
	}
	out["transport.memory_rtt_us"] = memRTT * us
	out["transport.tcp_rtt_us"] = tcpRTT * us
	// Each round trip moves the payload once in each direction.
	out["transport.tcp_mb_per_s"] = 2 * float64(payloadBytes(&report)) / tcpRTT / 1e6
	return out, nil
}

// pingPongWait bounds every probe receive, so a failed peer ends the probe
// with an error instead of hanging it.
const pingPongWait = 10 * time.Second

// pingPong returns the median round-trip seconds of msg between two
// endpoints of net: the pinger sends and waits for the echo, the peer (the
// benchmark's one extra goroutine, run by parallel.ForEach) echoes.
func pingPong(net transport.Network, msg transport.Message, trips int) (float64, error) {
	defer net.Close()
	ping, err := net.Endpoint("ping")
	if err != nil {
		return 0, err
	}
	pong, err := net.Endpoint("pong")
	if err != nil {
		return 0, err
	}
	const warm = 2
	rtts := make([]float64, 0, trips)
	err = parallel.ForEach(2, func(side int) error {
		for i := 0; i < warm+trips; i++ {
			if side == 1 {
				echo, err := pong.RecvTimeout(pingPongWait)
				if err != nil {
					return err
				}
				if err := pong.Send("ping", echo); err != nil {
					return err
				}
				continue
			}
			start := now()
			if err := ping.Send("pong", msg); err != nil {
				return err
			}
			if _, err := ping.RecvTimeout(pingPongWait); err != nil {
				return err
			}
			if i >= warm {
				rtts = append(rtts, since(start))
			}
		}
		return nil
	}, parallel.WithWorkers(2))
	if err != nil {
		return 0, err
	}
	if err := ping.Close(); err != nil {
		return 0, err
	}
	if err := pong.Close(); err != nil {
		return 0, err
	}
	return median(rtts), nil
}
