package cluster

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
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
	cfg := buildConfig(t, 31, 2)
	opts := Options{Adaptive: true, Tree: scenario{attack: &robust.AttackPlan{}}.tree(t, cfg)}
	_, _, ts, err := prepare(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := ts.tree.Scenario(); s != "" {
		t.Fatalf("empty plan with mean aggregators adds %q to the fingerprint", s)
	}
	if plan := ts.tree.AttackPlan(); plan != nil || plan.Attacker(WorkerID(0, 0), 4, 8) != nil {
		t.Fatalf("empty plan reached the tree as %v, or built an attacker through it", plan)
	}
	for i := 0; i < ts.depth()-1; i++ {
		if a := ts.level(i, nil).Agg; a != nil {
			t.Fatalf("mean level %d built aggregator %v", i, a)
		}
	}

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
	tree := scenario{attack: byzPlan(t, "signflip:worker-0-1@2,noise:worker-1-0@3-5=0.5,replay:worker-1-1@4")}.tree(t, cfg)
	attacked := func(netf func() Network) (*fl.Result, []string, error) {
		var buf bytes.Buffer
		tr := telemetry.NewTracer(&buf)
		traced := *cfg
		traced.Telemetry = telemetry.New(nil, tr)
		res, err := Run(&traced, netf(), Options{Adaptive: true, Tree: tree})
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
	median := robust.Spec{Kind: robust.Median}
	opts := Options{Adaptive: true, Tree: scenario{
		attack: byzPlan(t, "signflip:worker-0-1@2,noise:worker-1-0@3-5=0.5"), edge: median, cloud: median,
	}.tree(t, cfg)}
	ref, err := Run(cfg, transport.NewMemoryNetwork(), opts)
	if err != nil {
		t.Fatal(err)
	}

	res := runStaticNodes(t, cfg, opts)
	sameResult(t, "multi-process", res, ref)
	if res.AttackReport == nil {
		t.Fatal("robust multi-process run returned no attack report")
	}
	if got := res.AttackReport.TierAggregators; fmt.Sprint(got) != "[median median]" {
		t.Errorf("multi-process report names aggregators %q, want median at both tiers", got)
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
	trimmed := robust.Spec{Kind: robust.Trimmed, Trim: 0.25}
	opts := Options{Adaptive: true, Tree: scenario{
		churn: &plan, attack: byzPlan(t, "replay:worker-1-0@7-9"), edge: trimmed, cloud: trimmed,
	}.tree(t, cfg)}
	ref, err := Run(cfg, transport.NewMemoryNetwork(), opts)
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

	rerun, err := Run(cfg, transport.NewMemoryNetwork(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rerun", rerun, ref)
}

// TestClusterRobustResumeFingerprint: resuming a Byzantine run's snapshots
// under a different attack plan or aggregator describes a different
// trajectory and must be refused; resuming under the same scenario must
// finish bit-identically (the attacker's replay stash is part of the
// snapshot).
func TestClusterRobustResumeFingerprint(t *testing.T) {
	cfg := buildConfig(t, 71, 2)
	dir := t.TempDir()
	median := robust.Spec{Kind: robust.Median}
	opts := Options{Adaptive: true, CheckpointDir: dir,
		Tree: scenario{attack: byzPlan(t, "replay:worker-0-1@3"), edge: median}.tree(t, cfg)}
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
	wrong.Tree = scenario{attack: byzPlan(t, "signflip:worker-0-1@3"), edge: median}.tree(t, cfg)
	if _, err := Run(cfg, transport.NewMemoryNetwork(), wrong); err == nil {
		t.Error("resume under a different attack plan was accepted")
	}
	wrongAgg := resumed
	wrongAgg.Tree = scenario{attack: byzPlan(t, "replay:worker-0-1@3"),
		edge: robust.Spec{Kind: robust.Trimmed, Trim: 0.2}}.tree(t, cfg)
	if _, err := Run(cfg, transport.NewMemoryNetwork(), wrongAgg); err == nil {
		t.Error("resume under a different edge aggregator was accepted")
	}
}

// TestAttackPlanOutsideTheTree: a plan naming a node the tree does not have,
// or one that is not a training leaf, is refused by the tree, before any
// node starts, naming the ID and the tree.
func TestAttackPlanOutsideTheTree(t *testing.T) {
	cfg := buildConfig(t, 113, 0)
	const spec = "cloud:tau=4/edge*2:tau=2/worker*2"
	for _, tc := range []struct {
		plan, topology string
		ok             bool
	}{
		{plan: "signflip:worker-9-9@1"},
		{plan: "signflip:edge-0@1"},
		{plan: "signflip:cloud@1"},
		{plan: "signflip:worker-0-0@1", topology: spec},
		{plan: "signflip:edge-1@1", topology: spec},
		{plan: "signflip:worker-0-0@1", ok: true},
		{plan: "signflip:worker-3@1", topology: spec, ok: true},
	} {
		sc := scenario{attack: byzPlan(t, tc.plan)}
		if tc.topology != "" {
			sc.topology = treeTopo(t, tc.topology)
		}
		attacked, err := sc.resolve(cfg)
		if tc.ok {
			if err != nil {
				t.Errorf("%s on %q: %v", tc.plan, tc.topology, err)
			}
			continue
		}
		id := strings.TrimPrefix(tc.plan[:strings.IndexByte(tc.plan, '@')], "signflip:")
		tree, terr := cfg.Tree(sc.topology)
		if terr != nil {
			t.Fatal(terr)
		}
		if err == nil || attacked != nil || !strings.Contains(err.Error(), `"`+id+`"`) || !strings.Contains(err.Error(), tree.String()) {
			t.Errorf("%s on %q: err = %v, want a refusal naming %s and the tree", tc.plan, tc.topology, err, id)
		}
	}
}
