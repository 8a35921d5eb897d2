package cluster

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/transport"
)

// byzPlan parses an inline attack spec under a fixed seed.
func byzPlan(t *testing.T, spec string) *robust.AttackPlan {
	t.Helper()
	plan, err := robust.ParsePlan(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func sameResult(t *testing.T, name string, res, ref *fl.Result) {
	t.Helper()
	if res.FinalAcc != ref.FinalAcc || res.FinalLoss != ref.FinalLoss {
		t.Errorf("%s: %v/%v != reference %v/%v (must be bit-identical)",
			name, res.FinalAcc, res.FinalLoss, ref.FinalAcc, ref.FinalLoss)
	}
	if len(res.Curve) != len(ref.Curve) {
		t.Fatalf("%s: curve has %d points, reference %d", name, len(res.Curve), len(ref.Curve))
	}
	for i := range res.Curve {
		if res.Curve[i] != ref.Curve[i] {
			t.Errorf("%s: curve point %d %+v != %+v", name, i, res.Curve[i], ref.Curve[i])
		}
	}
}

// TestClusterEmptyAttackPlanIsBaseline pins the PR's central compatibility
// contract: an empty attack plan with mean aggregation at both tiers is
// not a Byzantine run at all — the robust layer must stay fully disabled
// (nil attack report, nil aggregators, original WeightedSum code path),
// leaving the run bit-identical to plain options.
func TestClusterEmptyAttackPlanIsBaseline(t *testing.T) {
	opts := Options{Adaptive: true, AttackPlan: &robust.AttackPlan{}}
	if opts.robustEnabled() {
		t.Fatal("empty plan with mean aggregators counts as robust-enabled")
	}
	if opts.attackerFor(WorkerID(0, 0), 4, 8) != nil {
		t.Fatal("empty plan built an attacker")
	}
	if a := newAggregator(opts.EdgeAggregator); a != nil {
		t.Fatalf("mean spec built aggregator %v", a)
	}

	cfg := buildConfig(t, 31, 2)
	res, err := Run(cfg, transport.NewMemoryNetwork(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.AttackReport != nil {
		t.Fatalf("baseline run carries attack report %+v", res.AttackReport)
	}
	ref, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "empty-plan", res, ref)
}

// attackEvents canonicalizes a trace's attack_inject lines into sorted
// node@t:kind tuples. Worker goroutines emit concurrently, so the event
// ORDER in a cluster trace varies with scheduling — but the SET of
// injections is part of the deterministic trajectory and must match
// exactly across reruns, pool sizes, and transports.
func attackEvents(t *testing.T, buf *bytes.Buffer) []string {
	t.Helper()
	events, err := telemetry.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ev := range events {
		if ev.Ev != "attack_inject" {
			continue
		}
		out = append(out, fmt.Sprintf("%v@%v:%v",
			ev.Fields["node"], ev.Fields["t"], ev.Fields["kind"]))
	}
	sort.Strings(out)
	return out
}

// TestClusterAttackDeterministic is the golden-trace acceptance test: a
// fixed attack plan under the undefended mean aggregator must produce
// bit-identical results and the identical injection set across reruns,
// worker pool sizes 1/2/8, and the memory and TCP transports.
func TestClusterAttackDeterministic(t *testing.T) {
	cfg := buildConfig(t, 61, 2)
	spec := "signflip:worker-0-1@2,noise:worker-1-0@3-5=0.5,replay:worker-1-1@4"
	attacked := func(netf func() Network) (*fl.Result, []string, error) {
		var buf bytes.Buffer
		tr := telemetry.NewTracer(&buf)
		res, err := Run(cfg, netf(), Options{
			Adaptive:   true,
			Telemetry:  telemetry.New(nil, tr),
			AttackPlan: byzPlan(t, spec),
		})
		if err != nil {
			return nil, nil, err
		}
		if err := tr.Flush(); err != nil {
			return nil, nil, err
		}
		return res, attackEvents(t, &buf), nil
	}
	memory := func() Network { return transport.NewMemoryNetwork() }

	ref, refEvents, err := attacked(memory)
	if err != nil {
		t.Fatal(err)
	}
	rep := ref.AttackReport
	if rep == nil {
		t.Fatal("attacked run returned no attack report")
	}
	// k runs 1..12 here: signflip from 2 → 11 hits, noise 3-5 → 3 hits,
	// replay from 4 → 9 hits (its first window boundary stashes round 3's
	// honest report, so every window round re-sends and counts).
	want := map[string]int{"signflip": 11, "noise": 3, "replay": 9}
	for kind, n := range want {
		if rep.Injected[kind] != n {
			t.Errorf("injected[%s] = %d, want %d", kind, rep.Injected[kind], n)
		}
	}
	if len(refEvents) != rep.TotalInjected() {
		t.Fatalf("trace has %d attack_inject events, report says %d injections",
			len(refEvents), rep.TotalInjected())
	}

	same := func(name string, res *fl.Result, events []string) {
		t.Helper()
		sameResult(t, name, res, ref)
		if len(events) != len(refEvents) {
			t.Fatalf("%s: %d attack events, reference %d", name, len(events), len(refEvents))
		}
		for i := range events {
			if events[i] != refEvents[i] {
				t.Errorf("%s: attack event %d %q != reference %q", name, i, events[i], refEvents[i])
			}
		}
	}

	rerun, events, err := attacked(memory)
	if err != nil {
		t.Fatal(err)
	}
	same("rerun", rerun, events)

	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		res, events, err := attacked(memory)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("workers=%d", workers), res, events)
	}
	cfg.Workers = 0

	tcp, events, err := attacked(func() Network { return transport.NewTCPNetwork() })
	if err != nil {
		t.Fatal(err)
	}
	same("tcp", tcp, events)
}

// TestClusterAttackAcrossProcessEntryPoints replays a Byzantine scenario
// through the per-node multi-process entry point (static TCP registry,
// every node its own harness and tree spec) and checks bit-equality with the
// single-process run — the attack RNG and aggregator state are pure
// functions of the shared flags, never of process layout.
func TestClusterAttackAcrossProcessEntryPoints(t *testing.T) {
	cfg := buildConfig(t, 107, 2)
	opts := Options{
		Adaptive:        true,
		AttackPlan:      byzPlan(t, "signflip:worker-0-1@2,noise:worker-1-0@3-5=0.5"),
		EdgeAggregator:  robust.Spec{Kind: robust.Median},
		CloudAggregator: robust.Spec{Kind: robust.Median},
	}
	ref, err := Run(cfg, transport.NewMemoryNetwork(), opts)
	if err != nil {
		t.Fatal(err)
	}

	res := runStaticNodes(t, cfg, opts)
	sameResult(t, "multi-process", res, ref)
	if res.AttackReport == nil {
		t.Fatal("robust multi-process run returned no attack report")
	}
	if res.AttackReport.EdgeAggregator != "median" || res.AttackReport.CloudAggregator != "median" {
		t.Errorf("multi-process report names aggregators %q/%q, want median/median",
			res.AttackReport.EdgeAggregator, res.AttackReport.CloudAggregator)
	}
}

// TestClusterAttackChurnInterplay exercises the hairiest composition: a
// worker that replays stale reports retires via a planned leave in the
// same window, under strict full-cohort quorum and a trimmed-mean edge.
// Replay must never register as a duplicate (it re-sends OLD vectors under
// the CURRENT round, so admission sees exactly one report per round) and
// the retired worker must leave the aggregation denominators cleanly.
func TestClusterAttackChurnInterplay(t *testing.T) {
	cfg := buildConfig(t, 51, 2)
	plan, err := membership.ParseSpec("leave:worker-1-0@9")
	if err != nil {
		t.Fatal(err)
	}
	opts := func() Options {
		p := plan.Clone()
		return Options{
			Adaptive:        true,
			ChurnPlan:       &p,
			AttackPlan:      byzPlan(t, "replay:worker-1-0@7-9"),
			EdgeAggregator:  robust.Spec{Kind: robust.Trimmed, Trim: 0.25},
			CloudAggregator: robust.Spec{Kind: robust.Trimmed, Trim: 0.25},
		}
	}
	ref, err := Run(cfg, transport.NewMemoryNetwork(), opts())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Membership == nil || ref.Membership.Leaves != 1 {
		t.Fatalf("membership report %+v, want exactly one leave", ref.Membership)
	}
	if ref.AttackReport == nil {
		t.Fatal("replay run returned no attack report")
	}
	// Window 7-9, stash primed at round 6: all three rounds replay,
	// including the leaver's final report at its retirement round.
	if got := ref.AttackReport.Injected["replay"]; got != 3 {
		t.Errorf("injected[replay] = %d, want 3", got)
	}
	if ref.FaultReport != nil && ref.FaultReport.DuplicateReports > 0 {
		t.Errorf("replay registered %d duplicate reports; admission must see one report per round",
			ref.FaultReport.DuplicateReports)
	}

	rerun, err := Run(cfg, transport.NewMemoryNetwork(), opts())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rerun", rerun, ref)
}

// TestClusterRobustMetricsMatchReport scrapes the fl_attack_* and
// fl_robust_* instruments after a defended run and checks them against the
// attack report — the counters must match the report exactly, because the
// report is accumulated at the same call sites that bump them.
func TestClusterRobustMetricsMatchReport(t *testing.T) {
	cfg := buildConfig(t, 31, 2)
	reg := telemetry.NewRegistry()
	res, err := Run(cfg, transport.NewMemoryNetwork(), Options{
		Adaptive:        true,
		Telemetry:       telemetry.New(reg, nil),
		AttackPlan:      byzPlan(t, "signflip:worker-0-1@1,scale:worker-1-0@1=25"),
		EdgeAggregator:  robust.Spec{Kind: robust.Cosine, CosMin: 0},
		CloudAggregator: robust.Spec{Kind: robust.Clip, Clip: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.AttackReport
	if rep == nil {
		t.Fatal("defended run returned no attack report")
	}
	if rep.TotalInjected() == 0 {
		t.Fatal("attack plan injected nothing")
	}
	if rep.TotalRejected()+rep.Clipped == 0 {
		t.Fatal("robust aggregation neither rejected nor clipped anything under sustained attack")
	}
	counter := func(name string) int64 {
		t.Helper()
		c := reg.Counter(name)
		if c == nil {
			t.Fatalf("counter %s not registered", name)
		}
		return c.Value()
	}
	if got := counter("fl_attack_injected_total"); got != int64(rep.TotalInjected()) {
		t.Errorf("fl_attack_injected_total = %d, report says %d", got, rep.TotalInjected())
	}
	if got := counter("fl_robust_rejected_total"); got != int64(rep.TotalRejected()) {
		t.Errorf("fl_robust_rejected_total = %d, report says %d", got, rep.TotalRejected())
	}
	if got := counter("fl_robust_clipped_total"); got != int64(rep.Clipped) {
		t.Errorf("fl_robust_clipped_total = %d, report says %d", got, rep.Clipped)
	}
}

// TestClusterRobustResumeFingerprint: resuming a Byzantine run's snapshots
// under a different attack plan or aggregator describes a different
// trajectory and must be refused; resuming under the same scenario must
// finish bit-identically (the attacker's replay stash is part of the
// snapshot).
func TestClusterRobustResumeFingerprint(t *testing.T) {
	cfg := buildConfig(t, 71, 2)
	dir := t.TempDir()
	opts := Options{
		Adaptive:       true,
		CheckpointDir:  dir,
		AttackPlan:     byzPlan(t, "replay:worker-0-1@3"),
		EdgeAggregator: robust.Spec{Kind: robust.Median},
	}
	ref, err := Run(cfg, transport.NewMemoryNetwork(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// The finished run left every node's snapshots behind: a resume under
	// the same scenario replays the final state and must agree.
	resumed := opts
	resumed.Resume = true
	res, err := Run(cfg, transport.NewMemoryNetwork(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "resumed", res, ref)

	wrong := resumed
	wrong.AttackPlan = byzPlan(t, "signflip:worker-0-1@3")
	if _, err := Run(cfg, transport.NewMemoryNetwork(), wrong); err == nil {
		t.Error("resume under a different attack plan was accepted")
	}
	wrongAgg := resumed
	wrongAgg.EdgeAggregator = robust.Spec{Kind: robust.Trimmed, Trim: 0.2}
	if _, err := Run(cfg, transport.NewMemoryNetwork(), wrongAgg); err == nil {
		t.Error("resume under a different edge aggregator was accepted")
	}
}
