package core

import (
	"bytes"
	"reflect"
	"testing"

	"hieradmo/internal/fl"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
)

// runTraced executes a fresh algorithm on a copy of cfg with the given
// worker-pool size, streaming the event trace into a buffer, and returns the
// result, the raw trace bytes, and the run's metric set.
func runTraced(t *testing.T, cfg *fl.Config, pool int, build func(...Option) *HierAdMo, opts ...Option) (*fl.Result, []byte, *telemetry.RunMetrics) {
	t.Helper()
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	sink := telemetry.New(reg, telemetry.NewTracer(&buf))
	c := *cfg
	c.Workers = pool
	c.Telemetry = sink
	res, err := build(opts...).Run(&c)
	if err != nil {
		t.Fatalf("pool=%d: %v", pool, err)
	}
	if err := sink.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes(), sink.M()
}

// TestGoldenTraceByteIdentical is the golden-trace satellite: the JSONL
// event stream of a deterministic run is byte-identical across repeated runs
// AND across worker-pool sizes — including under partial participation and
// uplink quantization, whose extra control flow must not perturb event
// order. This only holds because every Emit happens in sequential code.
func TestGoldenTraceByteIdentical(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 0, 11)
	cfg.EvalEvery = 8

	variants := []struct {
		name string
		opts []Option
	}{
		{name: "plain"},
		{name: "participation+quantization", opts: []Option{WithParticipation(0.5), WithUplinkQuantization(8)}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			wantRes, wantTrace, _ := runTraced(t, cfg, 1, New, v.opts...)
			if len(wantTrace) == 0 {
				t.Fatal("empty trace")
			}
			rerunRes, rerunTrace, _ := runTraced(t, cfg, 1, New, v.opts...)
			if !bytes.Equal(wantTrace, rerunTrace) {
				t.Errorf("two identical runs produced different traces (%d vs %d bytes)",
					len(wantTrace), len(rerunTrace))
			}
			if !reflect.DeepEqual(wantRes, rerunRes) {
				t.Error("two identical runs produced different results")
			}
			for _, pool := range []int{2, 8} {
				res, trace, _ := runTraced(t, cfg, pool, New, v.opts...)
				if !bytes.Equal(wantTrace, trace) {
					t.Errorf("pool=%d trace diverged from sequential trace", pool)
				}
				if !reflect.DeepEqual(wantRes, res) {
					t.Errorf("pool=%d result diverged under tracing", pool)
				}
			}
		})
	}
}

// TestTelemetryDoesNotPerturbResults pins the nil-sink contract from the
// other side: a run with full telemetry enabled is bit-identical to a run
// with cfg.Telemetry == nil.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	cfg := buildConfig(t, []int{2, 1}, 0, 7)
	cfg.EvalEvery = 8

	plain := *cfg
	res, err := New().Run(&plain)
	if err != nil {
		t.Fatal(err)
	}
	traced, _, _ := runTraced(t, cfg, 1, New)
	if !reflect.DeepEqual(res, traced) {
		t.Errorf("telemetry perturbed the run:\nplain:  %+v\ntraced: %+v", res, traced)
	}
}

// TestTraceStructureAndMetricTotals checks the emitted event vocabulary
// against the protocol arithmetic: every round boundary, aggregation, and
// sync shows up exactly as often as Algorithm 1 prescribes, the trace is
// gap-free, and the metric counters agree with the trace.
func TestTraceStructureAndMetricTotals(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 0, 13)
	cfg.EvalEvery = 8
	_, trace, m := runTraced(t, cfg, 1, New)

	events, err := telemetry.ReadTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckTrace(events); err != nil {
		t.Fatalf("trace sequence: %v", err)
	}
	if events[0].Ev != "run_start" || events[len(events)-1].Ev != "run_end" {
		t.Errorf("trace must be bracketed by run_start/run_end, got %s..%s",
			events[0].Ev, events[len(events)-1].Ev)
	}
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Ev]++
	}
	numEdges := cfg.NumEdges()
	numWorkers := cfg.NumWorkers()
	rounds := cfg.T / cfg.Tau
	syncs := cfg.T / (cfg.Tau * cfg.Pi)
	wants := map[string]int{
		"run_start":       1,
		"run_end":         1,
		"round_start":     rounds,
		"round_end":       rounds,
		"edge_aggregate":  rounds * numEdges,
		"cloud_aggregate": syncs,
		"worker_train":    rounds * numWorkers, // full participation: every worker, every round
	}
	for ev, want := range wants {
		if counts[ev] != want {
			t.Errorf("%s count = %d, want %d", ev, counts[ev], want)
		}
	}
	if counts["eval"] == 0 {
		t.Error("no eval events despite EvalEvery")
	}

	// The metric counters must tell the same story as the trace.
	if got := m.EdgeAggregations.Value(); got != int64(rounds*numEdges) {
		t.Errorf("EdgeAggregations = %d, want %d", got, rounds*numEdges)
	}
	if got := m.CloudSyncs.Value(); got != int64(syncs) {
		t.Errorf("CloudSyncs = %d, want %d", got, syncs)
	}
	if got := m.WorkerSteps.Value(); got != int64(cfg.T*numWorkers) {
		t.Errorf("WorkerSteps = %d, want %d", got, cfg.T*numWorkers)
	}
	if got := m.Evals.Value(); got != int64(counts["eval"]) {
		t.Errorf("Evals = %d, want %d (trace)", got, counts["eval"])
	}
	if got := m.IterationSeconds.Count(); got != int64(cfg.T) {
		t.Errorf("IterationSeconds count = %d, want %d", got, cfg.T)
	}
}

// TestReducedRunHasNoCosineField: the edge_aggregate field set is fixed per
// configuration (cos only when adaptation is on), which golden traces rely
// on.
func TestReducedRunHasNoCosineField(t *testing.T) {
	cfg := buildConfig(t, []int{2}, 0, 5)
	_, trace, _ := runTraced(t, cfg, 1, NewReduced)
	events, err := telemetry.ReadTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Ev != "edge_aggregate" {
			continue
		}
		if _, ok := e.Fields["cos"]; ok {
			t.Fatal("HierAdMo-R emitted a cos field")
		}
		if _, ok := e.Fields["gamma"]; !ok {
			t.Fatal("edge_aggregate without gamma field")
		}
	}
}

// TestRobustVerdictsTraced: the simulation records every robust verdict on
// its ledger as the cluster does, so a defended run under attack writes one
// robust_reject / robust_clip event per verdict, naming the aggregating node
// and the reporter, by the tiers the attack report counts; and a run without
// telemetry fills the same report from the ledger's tally alone.
func TestRobustVerdictsTraced(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 2, 17)
	derived, err := cfg.Tree(nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := derived.WithAggregators(robust.Spec{Kind: robust.Cosine, CosMin: 0}, robust.Spec{Kind: robust.Clip, Clip: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := robust.ParsePlan("signflip:worker-0-1@1,scale:worker-1-0@1=25", 3)
	if err != nil {
		t.Fatal(err)
	}
	if tree, err = tree.WithAttackPlan(plan); err != nil {
		t.Fatal(err)
	}
	bare, err := New().RunTree(cfg, tree)
	if err != nil {
		t.Fatal(err)
	}
	rep := bare.AttackReport
	if rep == nil || rep.TotalInjected() == 0 || rep.TotalRejected() == 0 || rep.TotalClipped() == 0 {
		t.Fatalf("a defended run without telemetry reports %v; want injections, rejections and clips", rep)
	}

	var buf bytes.Buffer
	traced := *cfg
	traced.Telemetry = telemetry.New(nil, telemetry.NewTracer(&buf))
	res, err := New().RunTree(&traced, tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := traced.Telemetry.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.AttackReport, rep) {
		t.Errorf("attack report with telemetry %v, without %v", res.AttackReport, rep)
	}
	events, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byTier := map[string]map[int]int{"robust_reject": {}, "robust_clip": {}}
	for _, ev := range events {
		counts, ok := byTier[ev.Ev]
		if !ok {
			continue
		}
		tier := int(ev.Fields["tier_index"].(float64))
		node, from := ev.Fields["node"].(string), ev.Fields["from"].(string)
		if lvl, _, ok := tree.Lookup(node); !ok || lvl != tier {
			t.Errorf("%s names node %q, not a node of level %d", ev.Ev, node, tier)
		}
		if lvl, _, ok := tree.Lookup(from); !ok || lvl != tier+1 {
			t.Errorf("%s names reporter %q, not a node of level %d", ev.Ev, from, tier+1)
		}
		counts[tier]++
	}
	if !reflect.DeepEqual(byTier["robust_reject"], rep.RejectedByTier) || !reflect.DeepEqual(byTier["robust_clip"], rep.ClippedByTier) {
		t.Errorf("verdict events by tier %v, report says rejected %v, clipped %v", byTier, rep.RejectedByTier, rep.ClippedByTier)
	}
}
