package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/model"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/topology"
	"hieradmo/internal/transport"
)

func buildConfig(t testing.TB, seed uint64, classesPerWorker int) *fl.Config {
	t.Helper()
	genCfg := dataset.GenConfig{
		Name:          "toy",
		Shape:         dataset.Shape{C: 1, H: 5, W: 5},
		NumClasses:    4,
		TemplateScale: 1.0,
		NoiseStd:      0.6,
		SmoothPasses:  1,
	}
	g, err := dataset.NewGenerator(genCfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	train, test := g.TrainTest(320, 80, seed+1)
	var shards []*dataset.Dataset
	if classesPerWorker > 0 {
		shards, err = dataset.PartitionClasses(train, 4, classesPerWorker, seed+2)
	} else {
		shards, err = dataset.PartitionIID(train, 4, seed+2)
	}
	if err != nil {
		t.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewLogisticRegression(genCfg.Shape, genCfg.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	return &fl.Config{
		Model: m, Edges: hier, Test: test,
		Eta: 0.05, Gamma: 0.5, GammaEdge: 0.5,
		Tau: 2, Pi: 2, T: 24, BatchSize: 8, Seed: seed,
		EvalEvery: 8,
	}
}

// TestProtocolIDs holds the tests' ID shorthands to the names the runtime
// takes from the derived tree.
func TestProtocolIDs(t *testing.T) {
	_, _, ts, err := prepare(buildConfig(t, 3, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.tree.ID(0, 0); got != CloudID {
		t.Errorf("root is %q, want %q", got, CloudID)
	}
	for l := 0; l < 2; l++ {
		if got := ts.tree.ID(1, l); got != EdgeID(l) {
			t.Errorf("edge %d is %q, want %q", l, got, EdgeID(l))
		}
		for i := 0; i < 2; i++ {
			if got := ts.tree.ID(2, ts.tree.Kids[1][l][i]); got != WorkerID(l, i) {
				t.Errorf("worker (%d, %d) is %q, want %q", l, i, got, WorkerID(l, i))
			}
		}
	}
}

func TestExpectKind(t *testing.T) {
	msg := transport.Message{Kind: "a", From: "x"}
	if err := expectKind(msg, "a"); err != nil {
		t.Error(err)
	}
	if err := expectKind(msg, "b"); err == nil {
		t.Error("kind mismatch accepted")
	}
}

// TestClusterMatchesSimulation is the load-bearing distributed-correctness
// test: a cluster run must produce exactly the same final model quality as
// the in-process reference simulation, because both drive the same update
// kernel and gradient step with identical inputs in identical order. The
// clip case pins that cfg.ClipNorm reaches the leaves: before the shared
// gradient step the cluster trained unclipped (0.9875 / 0.1479 against the
// simulation's 0.925 / 0.6872 on this config). The plan rows hand both
// engines an attack plan through the tree: they must inject the same
// reports and reach the same robust verdicts, and the plan must move the run.
// Every row requires the two engines' fl.AttackReports to be equal, nil for
// a plain run.
func TestClusterMatchesSimulation(t *testing.T) {
	// The -topology rows hand the simulation the spec's tree: a four-level
	// tree over eight leaves, a depth-2 tree with an explicit γ, and a tree
	// whose leaf parent groups the four workers differently from the
	// config's two edges, so the leaves' natal sampler keys differ from the
	// config's (edge, worker) indices. reduced-gammaedge0 is HierAdMo-R at
	// γℓ = 0 on the config's own tree: both engines take the leaf parents'
	// rule from core.Rule.LevelAt, a momentum step with γ = 0. The robust
	// rows take every level's aggregation rule from the tree — a spec's
	// agg=, or the edge / cloud defaults merged into it — in both
	// engines, which must reject and clip the same reports. The flat row
	// runs HierAdMo on the flat view of a ragged config's tree: the root
	// alone over every leaf at the leaves' global weights, each leaf keeping
	// its (edge, worker) sampler key and ID. On a depth-2 tree the root is
	// the leaf parent: both engines count its rounds as cloud syncs and
	// publish its γℓ. The part rows sample half of every edge's workers into
	// each of its rounds (part=0.5, topology.Tree.Sample), at depth 3 and 4:
	// both engines aggregate exactly the sample, and the leaves it leaves out
	// adopt only what comes down from above the edges. They run over tcp
	// too, and every row's final model is compared bit for bit.
	const tree4 = "cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2"
	const part3 = "cloud:tau=4/edge*2:tau=2,part=0.5/worker*2"
	const robust3 = "cloud:tau=4,agg=trimmed(0.25)/edge*2:tau=2,agg=median/worker*2"
	median := robust.Spec{Kind: robust.Median}
	trimmed := robust.Spec{Kind: robust.Trimmed, Trim: 0.25}
	cosine := robust.Spec{Kind: robust.Cosine, CosMin: 0}
	clip := robust.Spec{Kind: robust.Clip, Clip: 0.5}
	type matchCase struct {
		name          string
		adaptive      bool
		clip          float64
		topology      string
		zeroGammaEdge bool
		edge, cloud   robust.Spec
		plan          string
		cohorts       []int
		flat          bool
	}
	cases := []matchCase{
		{name: "adaptive", adaptive: true},
		{name: "reduced"},
		{name: "reduced-gammaedge0", zeroGammaEdge: true},
		{name: "clip", adaptive: true, clip: 0.05},
		{name: "tree4-adaptive", adaptive: true, topology: tree4},
		{name: "tree4-reduced", topology: tree4},
		{name: "depth2-gamma0", topology: "cloud:tau=4,gamma=0/worker*4"},
		{name: "depth2-adaptive", adaptive: true, topology: "cloud:tau=4/worker*4"},
		{name: "regrouped", adaptive: true, topology: "cloud:tau=4/edge:tau=2/worker*4"},
		{name: "flat-ragged", adaptive: true, cohorts: []int{3, 1, 2}, flat: true},
		{name: "spec-trimmed-median", adaptive: true, topology: robust3},
		{name: "spec-trimmed-median-reduced", topology: robust3},
		{name: "tree4-clip-median-cosine", adaptive: true,
			topology: "cloud:tau=8,agg=clip(0.5)/region*2:tau=4,agg=median/edge*2:tau=2,agg=cosine(0)/worker*2"},
		{name: "median-trimmed", adaptive: true, edge: median, cloud: trimmed},
		{name: "median-trimmed-reduced", edge: median, cloud: trimmed},
		{name: "cosine-clip", adaptive: true, edge: cosine, cloud: clip},
		{name: "cosine-clip-reduced", edge: cosine, cloud: clip},
		{name: "part-adaptive", adaptive: true, topology: part3},
		{name: "part-reduced", topology: part3},
		{name: "tree4-part-adaptive", adaptive: true, topology: "cloud:tau=8/region*2:tau=4/edge*2:tau=2,part=0.5/worker*2"},
	}
	// Each attack kind alone on the derived tree, under the mean, under the
	// median defaults (over two reporters the mean itself, so the kinds go
	// unfiltered) and under edge=cosine / cloud=clip; then all four kinds on
	// the four-level tree, whose leaves are named worker-<n>.
	for _, plan := range []string{"signflip:worker-0-1@1", "scale:worker-1-0@2-9=10",
		"noise:worker-0-0@1=0.5", "replay:worker-1-1@2"} {
		kind := plan[:strings.IndexByte(plan, ':')]
		cases = append(cases,
			matchCase{name: "mean-" + kind, adaptive: true, plan: plan},
			matchCase{name: "median-" + kind, adaptive: true, edge: median, cloud: median, plan: plan},
			matchCase{name: "cosine-clip-reduced-" + kind, edge: cosine, cloud: clip, plan: plan})
	}
	cases = append(cases, matchCase{name: "tree4-all-kinds", adaptive: true, topology: tree4,
		plan: "signflip:worker-1@1,scale:worker-2@2-9=10,noise:worker-5@1=0.5,replay:worker-6@2"})
	nets := []struct {
		name string
		new  func() Network
	}{
		{"memory", func() Network { return transport.NewMemoryNetwork() }},
		{"tcp", func() Network { return transport.NewTCPNetwork() }},
	}
	var verdicts int64
	// twoTiers counts the rows whose reports reject at two tiers, and
	// clipRows those that clip: the report comparison must see both.
	var twoTiers, clipRows int
	sameReports := func(t *testing.T, res, ref *fl.Result) {
		t.Helper()
		if !reflect.DeepEqual(res.AttackReport, ref.AttackReport) {
			t.Errorf("attack report in the cluster:\n%v\nin the simulation:\n%v", res.AttackReport, ref.AttackReport)
		}
		if rep := ref.AttackReport; rep != nil {
			if len(rep.RejectedByTier) > 1 {
				twoTiers++
			}
			if rep.TotalClipped() > 0 {
				clipRows++
			}
		}
	}
	// Both engines sample the curve at EvalEvery (fl.Harness.ShouldEval) and
	// at T: the same iterations, the same accuracy, the loss to rounding.
	sameCurve := func(t *testing.T, res, ref *fl.Result) {
		t.Helper()
		same := len(res.Curve) == len(ref.Curve)
		for i := 0; same && i < len(res.Curve); i++ {
			p, q := res.Curve[i], ref.Curve[i]
			same = p.Iter == q.Iter && p.TestAcc == q.TestAcc && fl.LossesAgree(p.TrainLoss, q.TrainLoss)
		}
		if !same {
			t.Errorf("cluster curve %v != simulation %v", res.Curve, ref.Curve)
		}
	}
	for _, tc := range cases {
		for _, nw := range nets {
			if nw.name == "tcp" && tc.clip == 0 && tc.plan == "" && !strings.Contains(tc.topology, "part=") {
				continue // TCP ≡ memory is TestClusterOverTCPMatchesMemory's job
			}
			t.Run(tc.name+"/"+nw.name, func(t *testing.T) {
				cfg := buildConfig(t, 31, 2)
				if tc.cohorts != nil {
					cfg = buildFlatConfig(t, 31, tc.cohorts)
				}
				var topo *topology.Topology
				if tc.topology != "" {
					topo = treeTopo(t, tc.topology)
					leaves := 1
					for _, lv := range topo.Levels {
						leaves *= lv.Fanout
					}
					if leaves != cfg.NumWorkers() {
						cfg = buildFlatConfig(t, 31, []int{leaves / 2, leaves / 2})
					}
				}
				cfg.ClipNorm = tc.clip
				if tc.zeroGammaEdge {
					cfg.GammaEdge = 0
				}
				cfg.Telemetry = telemetry.New(telemetry.NewRegistry(), nil)
				alg := core.NewReduced()
				if tc.adaptive {
					alg = core.New()
				}
				capture := &capturingModel{Model: cfg.Model}
				cfg.Model = capture
				var plan *robust.AttackPlan
				if tc.plan != "" {
					plan = byzPlan(t, tc.plan)
				}
				tree, err := cfg.Tree(topo)
				if err != nil {
					t.Fatal(err)
				}
				if tc.flat {
					if tree, err = tree.Flat(); err != nil {
						t.Fatal(err)
					}
				}
				if tree, err = tree.WithAggregators(tc.edge, tc.cloud); err != nil {
					t.Fatal(err)
				}
				attacked, err := tree.WithAttackPlan(plan)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := alg.RunTree(cfg, attacked)
				if err != nil {
					t.Fatal(err)
				}
				refM := cfg.Telemetry.M()
				refClips := refM.GradClips.Value()
				refParams := capture.hash()

				cfg.Telemetry = telemetry.New(telemetry.NewRegistry(), nil)
				res, err := Run(cfg, nw.new(), Options{Adaptive: tc.adaptive, Tree: attacked})
				if err != nil {
					t.Fatal(err)
				}
				if params := capture.hash(); params != refParams {
					t.Errorf("cluster final model %s != simulation %s", params, refParams)
				}
				m := cfg.Telemetry.M()
				injected := m.AttackInjected.Value()
				if injected != refM.AttackInjected.Value() || (plan != nil) != (injected > 0) {
					t.Errorf("fl_attack_injected_total = %d in the cluster, %d in the simulation (plan %q)",
						injected, refM.AttackInjected.Value(), tc.plan)
				}
				if plan != nil {
					cfg.Telemetry = nil
					clean, err := alg.RunTree(cfg, tree)
					if err != nil {
						t.Fatal(err)
					}
					if clean.FinalLoss == ref.FinalLoss {
						t.Errorf("plan %q left the final loss at the plan-less run's %v", tc.plan, clean.FinalLoss)
					}
				}
				rejected, clipped := m.RobustRejected.Value(), m.RobustClipped.Value()
				if rejected != refM.RobustRejected.Value() || clipped != refM.RobustClipped.Value() {
					t.Errorf("robust rejections/clips %d/%d in the cluster, %d/%d in the simulation",
						rejected, clipped, refM.RobustRejected.Value(), refM.RobustClipped.Value())
				}
				verdicts += rejected + clipped
				sameReports(t, res, ref)
				if res.FinalAcc != ref.FinalAcc {
					t.Errorf("cluster FinalAcc %v != simulation %v (models must be bit-identical)",
						res.FinalAcc, ref.FinalAcc)
				}
				// The loss reduction tree differs (the cloud sums edge-weighted
				// partial sums, the simulation sums a flat weighted series), so
				// the losses agree only to rounding.
				if !fl.LossesAgree(res.FinalLoss, ref.FinalLoss) {
					t.Errorf("cluster FinalLoss %v != simulation %v", res.FinalLoss, ref.FinalLoss)
				}
				sameCurve(t, res, ref)
				clips := m.GradClips.Value()
				if clips != refClips || (tc.clip > 0) != (clips > 0) {
					t.Errorf("fl_grad_clips_total = %d from the leaves, %d in the simulation (ClipNorm %v)",
						clips, refClips, tc.clip)
				}
				// Both engines publish every aggregate through core.Rule.Publish:
				// the root's rounds and the leaf parents' below it are counted
				// and timed alike, on the four-level and depth-2 trees too.
				for _, c := range []struct {
					name      string
					got, want int64
				}{
					{"fl_cloud_syncs_total", m.CloudSyncs.Value(), refM.CloudSyncs.Value()},
					{"fl_evals_total", m.Evals.Value(), refM.Evals.Value()},
					{"fl_edge_aggregations_total", m.EdgeAggregations.Value(), refM.EdgeAggregations.Value()},
					{"fl_gamma_zeroed_total", m.GammaZeroed.Value(), refM.GammaZeroed.Value()},
					{"fl_membership_gamma_migrations_total", m.GammaMigrations.Value(), refM.GammaMigrations.Value()},
					{"fl_cloud_sync_seconds count", m.CloudSyncSeconds.Count(), refM.CloudSyncSeconds.Count()},
					{"fl_edge_aggregate_seconds count", m.EdgeAggSeconds.Count(), refM.EdgeAggSeconds.Count()},
				} {
					if c.got != c.want {
						t.Errorf("%s = %d in the cluster, %d in the simulation", c.name, c.got, c.want)
					}
				}
				if m.CloudSyncs.Value() == 0 {
					t.Error("no cloud sync counted")
				}
				// With several leaf parents the gauges hold whichever node wrote
				// last, which the cluster's scheduling decides; with one they
				// hold its last round in both engines.
				if attacked.Width(attacked.LeafParent()) == 1 {
					if got, want := m.GammaEdge.Value(), refM.GammaEdge.Value(); got != want {
						t.Errorf("fl_gamma_edge = %v in the cluster, %v in the simulation", got, want)
					}
					if got, want := m.EdgeCosine.Value(), refM.EdgeCosine.Value(); got != want {
						t.Errorf("fl_edge_cosine = %v in the cluster, %v in the simulation", got, want)
					}
				}
			})
		}
	}
	if verdicts == 0 {
		t.Error("no robust row rejected or clipped a report: the rows do not exercise the robust rules")
	}

	// The churn and byz rows replay golden_runtime.json's churn scenarios,
	// the robust ones that reject at both tiers and that clip, and
	// TestTreeChurn's depth-4 tree: both engines run the tree the options
	// resolve, membership epochs and attack plans included, the simulation
	// lands on the final model the recorded runtime did, and the two traces
	// hold the same membership and injection events. In leave-at-point a
	// worker's last round ends at a root sync that is a curve point (t = 8).
	golden := loadGolden(t)
	scenarios := make(map[string]goldenScenario)
	for _, sc := range goldenScenarios() {
		scenarios[sc.name] = sc
	}
	scenarios["tree4-churn"] = goldenScenario{cfg: treeChurnConfig, opts: plain(Options{Adaptive: true}), scene: treeChurnScenario}
	scenarios["leave-at-point"] = goldenScenario{cfg: func(t *testing.T) *fl.Config { return buildConfig(t, 51, 2) },
		opts: plain(Options{Adaptive: true}), scene: func(t *testing.T) scenario {
			plan, err := membership.ParseSpec("leave:worker-1-0@4")
			if err != nil {
				t.Fatal(err)
			}
			return scenario{churn: &plan}
		}}
	var fired [7]int64 // the seven membership values, summed over the rows
	for _, name := range []string{"churn/zero", "churn/carry", "churn/rescale", "churn/reduced", "churn/ragged", "byz/churn",
		"byz/cosine(0)", "byz/clip(0.5)", "tree4-churn", "leave-at-point"} {
		sc := scenarios[name]
		for _, nw := range nets {
			if nw.name == "tcp" && name != "churn/zero" && name != "tree4-churn" && name != "byz/cosine(0)" {
				continue
			}
			t.Run(name+"/"+nw.name, func(t *testing.T) {
				cfg, opts := sc.cfg(t), sc.opts(t)
				tree := sc.scene(t).tree(t, cfg)
				opts.Tree = tree
				alg := core.NewReduced()
				if opts.Adaptive {
					alg = core.New()
				}
				capture := &capturingModel{Model: cfg.Model}
				cfg.Model = capture
				var refTrace bytes.Buffer
				tracer := telemetry.NewTracer(&refTrace)
				cfg.Telemetry = telemetry.New(telemetry.NewRegistry(), tracer)
				ref, err := alg.RunTree(cfg, tree)
				if err != nil {
					t.Fatal(err)
				}
				if err := tracer.Flush(); err != nil {
					t.Fatal(err)
				}
				if want, ok := golden[name]; ok && capture.hash() != want.Params {
					t.Errorf("simulated final model %s, the recorded runtime's %s", capture.hash(), want.Params)
				}
				refM := cfg.Telemetry.M()

				cfg.Model = capture.Model
				var trace bytes.Buffer
				tracer = telemetry.NewTracer(&trace)
				cfg.Telemetry = telemetry.New(telemetry.NewRegistry(), tracer)
				res, err := Run(cfg, nw.new(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := tracer.Flush(); err != nil {
					t.Fatal(err)
				}
				m := cfg.Telemetry.M()
				if res.FinalAcc != ref.FinalAcc || !fl.LossesAgree(res.FinalLoss, ref.FinalLoss) {
					t.Errorf("cluster %v/%v != simulation %v/%v", res.FinalAcc, res.FinalLoss, ref.FinalAcc, ref.FinalLoss)
				}
				if !reflect.DeepEqual(res.Membership, ref.Membership) {
					t.Errorf("membership %v in the cluster, %v in the simulation", res.Membership, ref.Membership)
				}
				sameCurve(t, res, ref)
				sameReports(t, res, ref)
				events, refEvents := scenarioEvents(t, &trace), scenarioEvents(t, &refTrace)
				if len(events) == 0 || len(refEvents) == 0 {
					t.Errorf("%d trace events in the cluster, %d in the simulation", len(events), len(refEvents))
				}
				if fmt.Sprint(events) != fmt.Sprint(refEvents) {
					t.Errorf("membership and injection events in the cluster:\n%v\nin the simulation:\n%v", events, refEvents)
				}
				for _, c := range []struct {
					what         string
					cluster, sim int64
				}{
					{"fl_evals_total", m.Evals.Value(), refM.Evals.Value()},
					{"fl_attack_injected_total", m.AttackInjected.Value(), refM.AttackInjected.Value()},
					{"fl_robust_rejected_total", m.RobustRejected.Value(), refM.RobustRejected.Value()},
					{"fl_robust_clipped_total", m.RobustClipped.Value(), refM.RobustClipped.Value()},
					// Both engines count the membership transitions at the
					// same boundaries and publish the root's epoch last.
					{"fl_membership_joins_total", m.MembershipJoins.Value(), refM.MembershipJoins.Value()},
					{"fl_membership_leaves_total", m.MembershipLeaves.Value(), refM.MembershipLeaves.Value()},
					{"fl_membership_reassigns_total", m.MembershipReassigns.Value(), refM.MembershipReassigns.Value()},
					{"fl_membership_retierings_total", m.MembershipRetiers.Value(), refM.MembershipRetiers.Value()},
					{"fl_membership_gamma_migrations_total", m.GammaMigrations.Value(), refM.GammaMigrations.Value()},
					{"fl_membership_epoch", int64(m.MembershipEpoch.Value()), int64(refM.MembershipEpoch.Value())},
					{"fl_membership_live_workers", int64(m.LiveWorkers.Value()), int64(refM.LiveWorkers.Value())},
				} {
					if c.cluster != c.sim {
						t.Errorf("%s = %d in the cluster, %d in the simulation", c.what, c.cluster, c.sim)
					}
				}
				fired[0] += refM.MembershipJoins.Value()
				fired[1] += refM.MembershipLeaves.Value()
				fired[2] += refM.MembershipReassigns.Value()
				fired[3] += refM.MembershipRetiers.Value()
				fired[4] += refM.GammaMigrations.Value()
				fired[5] += int64(refM.MembershipEpoch.Value())
				fired[6] += int64(refM.LiveWorkers.Value())
			})
		}
	}
	for i, n := range fired {
		if n == 0 {
			t.Errorf("membership value %d never moved in the churn rows: they do not exercise it", i)
		}
	}
	if twoTiers == 0 || clipRows == 0 {
		t.Errorf("%d rows reject at two tiers and %d clip: the report comparison must see both", twoTiers, clipRows)
	}
}

// scenarioEvents canonicalizes a trace's membership and attack-injection
// events — what both engines emit for a scenario — into sorted "event
// fields" lines: cluster nodes emit concurrently, so only the multiset is
// deterministic.
func scenarioEvents(t *testing.T, buf *bytes.Buffer) []string {
	t.Helper()
	events, err := telemetry.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ev := range events {
		switch ev.Ev {
		case "membership_join", "membership_leave", "membership_reassign", "membership_retier",
			"gamma_migration", "attack_inject":
			out = append(out, fmt.Sprintf("%s %v", ev.Ev, ev.Fields))
		}
	}
	sort.Strings(out)
	return out
}

func TestClusterOverTCPMatchesMemory(t *testing.T) {
	cfg := buildConfig(t, 37, 0)
	mem, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := Run(cfg, transport.NewTCPNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if mem.FinalAcc != tcp.FinalAcc || mem.FinalLoss != tcp.FinalLoss {
		t.Errorf("TCP run (%v/%v) differs from memory run (%v/%v)",
			tcp.FinalAcc, tcp.FinalLoss, mem.FinalAcc, mem.FinalLoss)
	}
}

func TestClusterRobustToDeliveryDelays(t *testing.T) {
	// Random per-message delays reorder arrivals across senders; the
	// index-addressed aggregation must keep results identical.
	cfg := buildConfig(t, 41, 2)
	ref, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := Run(cfg,
		transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{Seed: 7, MaxDelay: 3 * time.Millisecond}),
		Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.FinalAcc != delayed.FinalAcc {
		t.Errorf("delayed run %v differs from reference %v", delayed.FinalAcc, ref.FinalAcc)
	}
}

func TestClusterMessageLossSurfacesAsTimeout(t *testing.T) {
	// With messages being dropped, the synchronous protocol must fail fast
	// with a timeout instead of hanging.
	cfg := buildConfig(t, 43, 0)
	cfg.T = 8
	_, err := Run(cfg,
		transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{Seed: 11, DropRate: 1}),
		Options{Adaptive: true, RecvTimeout: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("run with total message loss succeeded")
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("err = %v, want wrapped ErrTimeout", err)
	}
}

func TestClusterRejectsInvalidConfig(t *testing.T) {
	cfg := buildConfig(t, 47, 0)
	cfg.T = 7 // not a multiple of tau*pi
	if _, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestClusterCurveRecorded(t *testing.T) {
	cfg := buildConfig(t, 53, 0)
	res, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve) == 0 {
		t.Fatal("no curve points")
	}
	last := res.Curve[len(res.Curve)-1]
	if last.Iter != cfg.T {
		t.Errorf("last point at %d, want %d", last.Iter, cfg.T)
	}
	if res.Algorithm != "HierAdMo/cluster" {
		t.Errorf("algorithm = %q", res.Algorithm)
	}
	red, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: false})
	if err != nil {
		t.Fatal(err)
	}
	if red.Algorithm != "HierAdMo-R/cluster" {
		t.Errorf("reduced algorithm = %q", red.Algorithm)
	}
}

func TestClusterPartialLossAlsoTimesOut(t *testing.T) {
	// Even 50% message loss must eventually surface as a timeout error
	// rather than a hang or a silent wrong result.
	cfg := buildConfig(t, 113, 0)
	cfg.T = 8
	_, err := Run(cfg,
		transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{Seed: 17, DropRate: 0.5}),
		Options{Adaptive: true, RecvTimeout: 150 * time.Millisecond})
	if err == nil {
		t.Fatal("run with 50% loss succeeded")
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Errorf("err = %v, want wrapped ErrTimeout", err)
	}
}

// TestClusterMatchesSimulationCNN repeats the bit-equivalence check with a
// He-initialized CNN, which exercises the x⁰-centred adaptation signal (the
// zero-initialized logistic model cannot distinguish it from raw Σy).
func TestClusterMatchesSimulationCNN(t *testing.T) {
	cfg := buildConfig(t, 131, 2)
	m, err := model.NewCNN(dataset.Shape{C: 1, H: 5, W: 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Model = m
	ref, err := core.New().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != ref.FinalAcc {
		t.Errorf("CNN cluster %v != simulation %v", res.FinalAcc, ref.FinalAcc)
	}
}
