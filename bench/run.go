package main

import (
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"time"

	"hieradmo/internal/cluster"
	"hieradmo/internal/core"
	"hieradmo/internal/experiment"
	"hieradmo/internal/fl"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
)

// params are the settings of one benchmark run.
type params struct {
	seed    uint64
	seconds float64 // measuring time of each phase of each workload
	quick   bool    // smoke-test sizes: T cut to one cloud round, one rep, one-call probes
	outDir  string  // traces, results and per-rep checkpoint directories
	procs   int     // GOMAXPROCS and the simulation's worker pool
}

const (
	leaves = 8 // training leaves of every workload
	// The e2e phase repeats set-up (config build + cold rep) to report a
	// median: 3 to 5 times, stopping early once setupSeconds have gone, so
	// the cheap set-ups get the reps that steady a one-second measurement
	// and the 5 s ones do not eat the run. minReps is the fewest timed reps.
	minSetups, maxSetups = 3, 5
	setupSeconds         = 6.0
	minReps              = 3
)

// buildConfig generates a workload's inputs from the seed; the program under
// test only ever sees the resulting fl.Config.
func buildConfig(task experiment.Workload, topo *topology.Topology, p params) (*fl.Config, error) {
	scale := experiment.BenchScale()
	scale.Seed = p.seed
	scale.Workers = p.procs
	if p.quick {
		task.T = task.Tau * task.Pi
		if topo != nil {
			task.T = topo.Levels[0].Tau
		}
	}
	return experiment.BuildConfig(task, scale)
}

type repKind int

const (
	repPlain        repKind = iota // timed: network wrapper without span log
	repTraced                      // model and endpoint decorators record spans
	repTelemetry                   // plain plus a live telemetry sink and tracer
	repNoCheckpoint                // plain with checkpointing off (ckpt workload only)
)

// rep is the measurement of one Run call.
type rep struct {
	res       *fl.Result
	wall      float64   // seconds inside the Run call
	use       usage     // counters billed to the rep
	ticks     []float64 // seconds after Run start of each leaf round's end
	msgs      int64
	bytes     int64
	diskBytes int64
	log       *spanLog
	nodes     []string
	// The rep span opens before the decorators are set up and closes after
	// the counters are read; start is the Run call's.
	repStart, start, repEnd time.Time
}

// runner repeats one workload and keeps the oracle's books.
type runner struct {
	w    *workload
	p    params
	topo *topology.Topology
	cfg  *fl.Config

	// first is the result every later rep must equal bit for bit.
	first *fl.Result
	// targetIter is the evaluation point three quarters through the curve
	// (iteration 240 of 320 on the CNN task, where seed 1 first reaches
	// 0.80) and targetAcc the accuracy the run has there.
	targetIter int
	targetAcc  float64

	attempted, failed int
	failures          []string

	// Structural span times of the first set-up, for the trace file.
	t0    time.Time
	phase phaseTimes
}

func newRunner(w *workload, p params) (*runner, error) {
	r := &runner{w: w, p: p, t0: now()}
	if w.topo != "" {
		topo, err := topology.Parse(w.topo)
		if err != nil {
			return nil, err
		}
		r.topo = topo
	}
	return r, nil
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, r.w.Name+": "+fmt.Sprintf(format, args...))
}

// rounds is the number of leaf rounds of one run.
func (r *runner) rounds() int { return r.cfg.T / r.cfg.Tau }

// run executes one rep of the given kind and checks its output. A nil rep
// means the rep failed; the failure is already counted.
func (r *runner) run(kind repKind) *rep {
	r.attempted++
	out, err := r.measure(kind)
	if err != nil {
		r.fail("rep failed: %v", err)
		return nil
	}
	if msg := r.check(out.res); msg != "" {
		r.fail("%s", msg)
		return nil
	}
	// Two ticks make one round period; the target's tick must exist once
	// the first rep has fixed the target.
	if need := max(2, r.targetIter/r.cfg.Tau); len(out.ticks) < need {
		r.fail("saw %d leaf-round ticks, need %d", len(out.ticks), need)
		return nil
	}
	return out
}

func (r *runner) measure(kind repKind) (*rep, error) {
	cfg := *r.cfg
	out := &rep{repStart: now()}
	if kind == repTraced {
		out.log = newSpanLog()
		cfg.Model = &tracedModel{Model: cfg.Model, log: out.log}
	}
	if kind == repTelemetry {
		cfg.Telemetry = telemetry.New(nil, telemetry.NewTracer(io.Discard))
	}
	var err error
	if r.w.network == nil {
		err = r.simulate(&cfg, out)
	} else {
		err = r.distribute(&cfg, kind, out)
	}
	if err != nil {
		return nil, err
	}
	if tr := cfg.Telemetry.Tracer(); tr != nil {
		if err := tr.Flush(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// begin and end bracket the Run call: usage first, clock last on the way
// in, the reverse on the way out, so reading the counters is not timed.
func (out *rep) begin() {
	out.use = readUsage()
	out.start = now()
	if out.log != nil {
		out.log.t0 = out.start
	}
}

func (out *rep) end() {
	out.wall = since(out.start)
	after := readUsage()
	out.use = usage{
		cpu:     after.cpu - out.use.cpu,
		alloc:   after.alloc - out.use.alloc,
		mallocs: after.mallocs - out.use.mallocs,
		gcs:     after.gcs - out.use.gcs,
		pauseNs: after.pauseNs - out.use.pauseNs,
	}
	out.repEnd = now()
}

// simulate runs core.New().Run; a leaf round ends when edge 0 adapts its γℓ.
func (r *runner) simulate(cfg *fl.Config, out *rep) error {
	out.ticks = make([]float64, 0, r.rounds())
	alg := core.New(core.WithGammaObserver(func(edge int, _ float64) {
		if edge == 0 {
			out.ticks = append(out.ticks, since(out.start))
		}
	}))
	out.begin()
	res, err := alg.Run(cfg)
	out.end()
	out.res = res
	return err
}

// distribute runs cluster.Run over the workload's network; a leaf round ends
// when the leaf-parent's update is delivered to leaf 0.
func (r *runner) distribute(cfg *fl.Config, kind repKind, out *rep) error {
	opts := cluster.Options{Adaptive: true, Topology: r.topo}
	if r.w.ckpt && kind != repNoCheckpoint {
		dir, err := os.MkdirTemp(r.p.outDir, "ckpt-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.CheckpointDir = dir
	}
	net := newProbeNet(r.w.network(), out.log)
	out.begin()
	net.start = out.start
	res, err := cluster.Run(cfg, net, opts)
	out.end()
	if err != nil {
		return err
	}
	out.res = res
	for _, ns := range net.leafTicks() {
		out.ticks = append(out.ticks, float64(ns)/1e9)
	}
	out.msgs, out.bytes = net.counting.Traffic()
	if out.log != nil {
		for _, ep := range net.eps {
			out.nodes = append(out.nodes, ep.ID())
		}
	}
	if opts.CheckpointDir != "" {
		out.diskBytes, err = dirBytes(opts.CheckpointDir)
	}
	return err
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// identical reports whether two runs of one runtime agree bit for bit on
// FinalAcc, FinalLoss and every curve point.
func identical(a, b *fl.Result) bool {
	if !sameBits(a.FinalAcc, b.FinalAcc) || !sameBits(a.FinalLoss, b.FinalLoss) || len(a.Curve) != len(b.Curve) {
		return false
	}
	for i, p := range a.Curve {
		q := b.Curve[i]
		if p.Iter != q.Iter || !sameBits(p.TestAcc, q.TestAcc) || !sameBits(p.TrainLoss, q.TrainLoss) {
			return false
		}
	}
	return true
}

// matchesSimulation reports whether a 3-tier cluster result equals the
// in-process simulation's: FinalAcc and the accuracy of every curve point
// the two share bit for bit, losses to rounding. The cluster records a
// point per cloud sync and the simulation one per EvalEvery iterations, so
// they share the iterations that are both (always including the last).
func matchesSimulation(res, ref *fl.Result) bool {
	sameLoss := func(x, y float64) bool { return math.Abs(x-y) <= simulationLossTol*(1+math.Abs(y)) }
	if !sameBits(res.FinalAcc, ref.FinalAcc) || !sameLoss(res.FinalLoss, ref.FinalLoss) {
		return false
	}
	shared := 0
	for _, p := range res.Curve {
		for _, q := range ref.Curve {
			if p.Iter != q.Iter {
				continue
			}
			if !sameBits(p.TestAcc, q.TestAcc) || !sameLoss(p.TrainLoss, q.TrainLoss) {
				return false
			}
			shared++
		}
	}
	return shared > 0
}

// simulationLossTol is how far, relative to their size, a cluster run's
// losses may sit from the simulation's: the models are bit-identical, but
// the cloud sums edge-weighted partial losses where the simulation sums one
// flat series, so losses agree only to rounding (internal/cluster's own
// equivalence test allows the same).
const simulationLossTol = 1e-12

// check is the correctness oracle of one rep; it returns "" or the miss.
func (r *runner) check(res *fl.Result) string {
	if res == nil || len(res.Curve) == 0 {
		return "no result"
	}
	if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
		return fmt.Sprintf("FinalLoss %v is not finite", res.FinalLoss)
	}
	if !r.p.quick && res.FinalAcc < r.w.floor {
		return fmt.Sprintf("FinalAcc %.4f below the sanity floor %.2f", res.FinalAcc, r.w.floor)
	}
	if r.first != nil && !identical(res, r.first) {
		return fmt.Sprintf("result differs from the first rep (FinalAcc %.6f vs %.6f)", res.FinalAcc, r.first.FinalAcc)
	}
	return ""
}

// setUp builds the config and runs the cold rep; it returns the seconds the
// two took. The first call also fixes the reference result and the accuracy
// target, and for the default 3-tier runtime checks the cold rep against
// the in-process simulation.
func (r *runner) setUp() (float64, bool) {
	start := now()
	cfg, err := buildConfig(r.w.task, r.topo, r.p)
	if err != nil {
		r.attempted++
		r.fail("build config: %v", err)
		return 0, false
	}
	r.cfg = cfg
	built := now()
	cold := r.run(repPlain)
	seconds := since(start)
	if cold == nil {
		return 0, false
	}
	if r.first != nil {
		return seconds, true
	}

	r.first = cold.res
	r.phase.buildEnd = built.Sub(r.t0).Seconds()
	r.phase.warmupEnd = start.Sub(r.t0).Seconds() + seconds
	at := 3*len(cold.res.Curve)/4 - 1
	if at < 0 {
		at = 0
	}
	r.targetIter, r.targetAcc = cold.res.Curve[at].Iter, cold.res.Curve[at].TestAcc
	if r.w.network != nil && r.topo == nil {
		r.attempted++
		ref, err := core.New().Run(r.cfg)
		switch {
		case err != nil:
			r.fail("reference simulation: %v", err)
			return 0, false
		case !matchesSimulation(cold.res, ref):
			r.fail("cluster result differs from the simulation (FinalAcc %.6f vs %.6f)", cold.res.FinalAcc, ref.FinalAcc)
			return 0, false
		}
	}
	return seconds, true
}

// samples are the per-rep values of every end-to-end metric.
type samples map[string][]float64

// record adds one timed rep's end-to-end values.
func (r *runner) record(s samples, out *rep) {
	rounds := float64(r.rounds())
	s["wall_s"] = append(s["wall_s"], out.wall)
	s["samples_per_s"] = append(s["samples_per_s"], float64(r.cfg.T*leaves*r.cfg.BatchSize)/out.wall)
	s["round_p50_ms"] = append(s["round_p50_ms"], median(gapsMs(out.ticks)))
	s["time_to_acc_s"] = append(s["time_to_acc_s"], out.ticks[r.targetIter/r.cfg.Tau-1])
	s["cpu_s"] = append(s["cpu_s"], out.use.cpu)
	s["alloc_mb_per_round"] = append(s["alloc_mb_per_round"], float64(out.use.alloc)/1e6/rounds)
	s["allocs_per_round"] = append(s["allocs_per_round"], float64(out.use.mallocs)/rounds)
}

// gapsMs returns the periods between successive ticks in milliseconds.
func gapsMs(ticks []float64) []float64 {
	gaps := make([]float64, 0, len(ticks))
	for i := 1; i < len(ticks); i++ {
		gaps = append(gaps, (ticks[i]-ticks[i-1])*1e3)
	}
	return gaps
}

// until repeats body until the phase's measuring time is used up, and at
// least least times; body returns false to stop early on a failed rep.
func (r *runner) until(least int, body func() bool) {
	if r.p.quick {
		body()
		return
	}
	start := now()
	for n := 0; n < least || since(start) < r.p.seconds; n++ {
		if !body() {
			return
		}
	}
}

// endToEnd measures with tracing off: set-up several times, then timed reps
// for the measuring time. It returns every end-to-end metric's samples.
func (r *runner) endToEnd() samples {
	s := make(samples)
	start := now()
	for i := 0; i < minSetups || (i < maxSetups && since(start) < setupSeconds); i++ {
		seconds, ok := r.setUp()
		if !ok {
			return s
		}
		s["setup_s"] = append(s["setup_s"], seconds)
		if r.p.quick {
			break
		}
	}
	r.until(minReps, func() bool {
		out := r.run(repPlain)
		if out != nil {
			r.record(s, out)
		}
		return out != nil
	})
	return s
}

// layers measures the per-layer metrics read off reps: it cycles plain,
// traced and telemetry reps (and, on the checkpoint workload, a rep with
// checkpointing off) for the measuring time, reports medians over the
// cycles, and writes the last traced rep to trace_<workload>.jsonl. A nil
// map means a rep failed; the failure is already counted.
func (r *runner) layers() (map[string]float64, error) {
	if r.first == nil {
		if _, ok := r.setUp(); !ok {
			return nil, nil
		}
	}
	kinds := []repKind{repPlain, repTraced, repTelemetry}
	if r.w.ckpt {
		kinds = append(kinds, repNoCheckpoint)
	}
	// One cycle is one rep of each kind back to back, so the ratios between
	// kinds are taken between neighbours in time and the host's drift from
	// minute to minute mostly cancels.
	type cycle struct {
		reps   [repNoCheckpoint + 1]*rep
		totals spanTotals
	}
	var cycles []cycle
	r.until(1, func() bool {
		var c cycle
		for _, kind := range kinds {
			if c.reps[kind] = r.run(kind); c.reps[kind] == nil {
				return false
			}
		}
		log := c.reps[repTraced].log
		c.totals = totalSpans(log.recorded())
		cycles = append(cycles, c)
		return true
	})
	if len(cycles) == 0 {
		return nil, nil
	}
	for i := range cycles {
		if d := cycles[i].reps[repTraced].log.dropped(); d > 0 {
			return nil, fmt.Errorf("%s: span log overflowed by %d spans", r.w.Name, d)
		}
	}
	over := func(value func(c *cycle) float64) float64 {
		vals := make([]float64, len(cycles))
		for i := range cycles {
			vals[i] = value(&cycles[i])
		}
		return median(vals)
	}
	rounds := float64(r.rounds())
	m := make(map[string]float64)

	// Compute calls are one size each, so their busy time is calls × median
	// call time (see spanTotals.typical); sends and receives block on the
	// peer and the socket, which is exactly what their sums report.
	m["model.lossgrad_busy_s"] = over(func(c *cycle) float64 { return c.totals.typical[spanLossGrad] })
	m["model.predict_busy_s"] = over(func(c *cycle) float64 { return c.totals.typical[spanPredict] })
	m["transport.send_busy_s"] = over(func(c *cycle) float64 { return c.totals.sum[spanSend] })
	m["transport.recv_wait_s"] = over(func(c *cycle) float64 { return c.totals.sum[spanRecv] })
	// Call counts and traffic are fixed by the protocol: any cycle has them.
	first := &cycles[0]
	m["model.lossgrad_calls"] = float64(first.totals.calls[spanLossGrad])
	m["model.predict_calls"] = float64(first.totals.calls[spanPredict])
	m["transport.send_calls"] = float64(first.totals.calls[spanSend])
	m["transport.recv_calls"] = float64(first.totals.calls[spanRecv])
	m["transport.payload_mb"] = float64(first.reps[repPlain].bytes) / 1e6
	m["transport.msgs_per_round"] = float64(first.reps[repPlain].msgs) / rounds
	m["payload_kb_per_round"] = float64(first.reps[repPlain].bytes) / 1e3 / rounds

	// What the traced rep's CPU time holds beyond the decorated calls: tier
	// bookkeeping, decode, aggregation, GC. Billed to the runtime in use.
	residual := over(func(c *cycle) float64 {
		t := &c.totals
		return c.reps[repTraced].use.cpu - t.typical[spanLossGrad] - t.typical[spanPredict] - t.sum[spanSend]
	})
	m["cluster.residual_cpu_s"], m["core.residual_cpu_s"] = residual, 0
	if r.w.network == nil {
		m["cluster.residual_cpu_s"], m["core.residual_cpu_s"] = 0, residual
	}

	var gaps []float64
	for i := range cycles {
		gaps = append(gaps, gapsMs(cycles[i].reps[repPlain].ticks)...)
	}
	m["cluster.round_p95_ms"] = percentile(gaps, 0.95)
	m["cluster.round_samples"] = float64(len(gaps))

	m["checkpoint.stall_ms_per_round"], m["checkpoint.disk_mb"] = 0, 0
	if r.w.ckpt {
		m["checkpoint.stall_ms_per_round"] = over(func(c *cycle) float64 {
			return (c.reps[repPlain].wall - c.reps[repNoCheckpoint].wall) * 1e3 / rounds
		})
		m["checkpoint.disk_mb"] = float64(first.reps[repPlain].diskBytes) / 1e6
	}
	m["gc.cycles"] = over(func(c *cycle) float64 { return float64(c.reps[repPlain].use.gcs) })
	m["gc.pause_ms"] = over(func(c *cycle) float64 { return float64(c.reps[repPlain].use.pauseNs) / 1e6 })
	m["telemetry.overhead_frac"] = over(func(c *cycle) float64 { return c.reps[repTelemetry].wall/c.reps[repPlain].wall - 1 })
	m["trace.overhead_frac"] = over(func(c *cycle) float64 { return c.reps[repTraced].wall/c.reps[repPlain].wall - 1 })
	m["failed_frac"] = float64(r.failed) / float64(r.attempted)

	last := cycles[len(cycles)-1].reps[repTraced]
	ph := r.phase
	ph.runStart = last.start.Sub(r.t0).Seconds()
	ph.runEnd = ph.runStart + last.wall
	ph.repStart, ph.repEnd = last.repStart.Sub(r.t0).Seconds(), last.repEnd.Sub(r.t0).Seconds()
	path := filepath.Join(r.p.outDir, "trace_"+r.w.Name+".jsonl")
	if err := writeTrace(path, r.w.Name, ph, last.log, last.nodes); err != nil {
		return nil, err
	}
	return m, nil
}

// probes runs the layer probes on models and batches drawn from the two
// task configs, built from the run's seed like any workload's.
func probes(p params) (map[string]float64, error) {
	cnn, err := buildConfig(cnnTask, nil, p)
	if err != nil {
		return nil, err
	}
	logit, err := buildConfig(syncTask, nil, p)
	if err != nil {
		return nil, err
	}
	budget := probeBudget
	if p.quick {
		budget = 0
	}
	return runProbes(cnn, logit, p.seed, p.procs, budget)
}
