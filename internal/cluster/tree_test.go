package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"hieradmo/internal/baseline"
	"hieradmo/internal/checkpoint"
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

// treeTopo parses a topology spec or fails the test.
func treeTopo(t *testing.T, spec string) *topology.Topology {
	t.Helper()
	topo, err := topology.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return topo
}

// scenario is what a test run merges into its config's tree — or
// topology's — in the order flcluster merges its flags: the default
// aggregators, the attack plan, then the membership.
type scenario struct {
	topology    *topology.Topology
	edge, cloud robust.Spec
	attack      *robust.AttackPlan
	churn       *membership.Plan
	retier      int
	migration   membership.MigrationPolicy
}

// resolve returns the tree a run under the scenario executes on cfg, or the
// first constructor's refusal.
func (s scenario) resolve(cfg *fl.Config) (*topology.Tree, error) {
	tree, err := cfg.Tree(s.topology)
	if err == nil {
		tree, err = tree.WithAggregators(s.edge, s.cloud)
	}
	if err == nil {
		tree, err = tree.WithAttackPlan(s.attack)
	}
	if err != nil {
		return nil, err
	}
	var plan membership.Plan
	if s.churn != nil {
		plan = *s.churn
	}
	return tree.WithMembership(plan, cfg.LeafStats(), cfg.T, s.retier, s.migration)
}

// tree is resolve failing the test on a refusal.
func (s scenario) tree(t *testing.T, cfg *fl.Config) *topology.Tree {
	t.Helper()
	tree, err := s.resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// buildFlatConfig is a leaf-count-parametric config over edge shape `edges`,
// otherwise identical to buildConfig: same generator, partitions, model, and
// hyperparameters.
func buildFlatConfig(t *testing.T, seed uint64, edges []int) *fl.Config {
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
	n := 0
	for _, c := range edges {
		n += c
	}
	shards, err := dataset.PartitionIID(train, n, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := dataset.Hierarchy(shards, edges)
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

// TestTreeSpecMatchesGolden is the central regression of the one-runtime
// design: an explicit depth-3 spec equal to the config's shape is the same
// tree under other node IDs, so it must reproduce the digests recorded from
// the deleted cloud/edge/worker runtime bit for bit — static runs in both
// modes and at every cohort size of the golden suite, and churn runs under
// every migration policy, including an interrupt-resume.
func TestTreeSpecMatchesGolden(t *testing.T) {
	golden := loadGolden(t)
	byName := make(map[string]goldenScenario)
	for _, sc := range goldenScenarios() {
		byName[sc.name] = sc
	}
	const spec22 = "cloud:tau=4/edge*2:tau=2/worker*2"
	cases := map[string]string{
		"static/adaptive":  spec22,
		"static/reduced":   spec22,
		"static/workers=1": "cloud:tau=4/edge:tau=2/worker",
		"static/workers=2": "cloud:tau=4/edge:tau=2/worker*2",
		"static/workers=8": "cloud:tau=4/edge*2:tau=2/worker*4",
		"churn/zero":       spec22,
		"churn/carry":      spec22,
		"churn/rescale":    spec22,
		"churn/reduced":    spec22,
		"resume/churn":     spec22,
	}
	for name, spec := range cases {
		sc, want := byName[name], golden[name]
		if sc.cfg == nil || want.Params == "" {
			t.Fatalf("%s: no such golden scenario", name)
		}
		derived, cfg := sc.scene, sc.cfg
		sc.scene = func(t *testing.T) scenario {
			var s scenario
			if derived != nil {
				s = derived(t)
			}
			s.topology = treeTopo(t, spec)
			if s.churn != nil {
				s.churn = respell(t, cfg(t), *s.churn, s.topology)
			}
			return s
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, sc, want)
		})
	}
}

// respell names the leaves a churn plan names on the config's own tree by
// their IDs on topo's tree, which regroups the same leaves in order.
func respell(t *testing.T, cfg *fl.Config, plan membership.Plan, topo *topology.Topology) *membership.Plan {
	t.Helper()
	derived, err := cfg.Tree(nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cfg.Tree(topo)
	if err != nil {
		t.Fatal(err)
	}
	plan = plan.Clone()
	for e, ev := range plan.Events {
		_, j, ok := derived.Lookup(ev.Worker)
		if !ok {
			t.Fatalf("%s is not a leaf of %s", ev.Worker, derived)
		}
		plan.Events[e].Worker = spec.ID(spec.Depth()-1, j)
	}
	return &plan
}

// TestTreeWeightsMatchSchedule cross-checks the tree's per-epoch children
// and weights against an oracle written here from the schedule's cohorts and
// the shards' sizes: on a depth-3 shape the leaf-parent weights are each
// live member's share of its cohort and the root's each edge's share of the
// live data, bit for bit, in every round.
func TestTreeWeightsMatchSchedule(t *testing.T) {
	cfg := buildConfig(t, 51, 2)
	_, _, ts, err := prepare(cfg, churnOptions(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	sched := ts.tree.Membership()
	if sched == nil || sched.Epochs() < 2 {
		t.Fatalf("the churn scenario built %v, want a schedule with several epochs", sched)
	}
	same := func(what string, got []float64, sizes []int) {
		t.Helper()
		total := 0
		for _, n := range sizes {
			total += n
		}
		if len(got) != len(sizes) {
			t.Fatalf("%s: %d weights for %d children", what, len(got), len(sizes))
		}
		for i, n := range sizes {
			if want := float64(n) / float64(total); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("%s[%d] = %v, want %v", what, i, got[i], want)
			}
		}
	}
	for k := 1; k <= sched.K; k++ {
		edgeSizes := make([]int, sched.NumEdges)
		for l := range edgeSizes {
			kids, w := ts.tree.Children(1, l, k)
			if !slices.Equal(kids, sched.Cohort(k, l)) {
				t.Errorf("round %d edge %d: children %v, schedule says %v", k, l, kids, sched.Cohort(k, l))
			}
			sizes := make([]int, len(kids))
			for pos, j := range kids {
				sizes[pos] = ts.shards[j].Len()
				edgeSizes[l] += sizes[pos]
			}
			same(fmt.Sprintf("round %d edge %d", k, l), w, sizes)
		}
		if k%cfg.Pi == 0 {
			_, w := ts.tree.Children(0, 0, k/cfg.Pi)
			same(fmt.Sprintf("sync at round %d", k), w, edgeSizes)
		}
	}
}

// TestTreeDepth2MatchesFedNAG pins the two-level degenerate case to the flat
// momentum baseline: a cloud/worker tree with γ=0 at the root and no
// adaptation is exactly FedNAG — every worker runs NAG, the root plainly
// averages [y, x] every τ·π — so the distributed tree must land on the flat
// in-process baseline bit for bit. (A single-edge config keeps the global
// weights bitwise identical: EdgeWeights[0] is exactly 1.0.)
func TestTreeDepth2MatchesFedNAG(t *testing.T) {
	cfg := buildFlatConfig(t, 71, []int{4})
	cfg.EvalEvery = 0 // FedNAG's curve samples between syncs; compare finals
	ref, err := baseline.NewFedNAG().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, transport.NewMemoryNetwork(), Options{
		Topology: treeTopo(t, "cloud:tau=4,gamma=0/worker*4"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != ref.FinalAcc {
		t.Errorf("depth-2 tree FinalAcc %v != FedNAG %v (must be bit-identical)",
			res.FinalAcc, ref.FinalAcc)
	}
	if res.FinalLoss != ref.FinalLoss {
		t.Errorf("depth-2 tree FinalLoss %v != FedNAG %v", res.FinalLoss, ref.FinalLoss)
	}
}

// depth4Spec is the 4-level shape of the determinism and resume tests:
// per-tier periods 8/4/2 with a robust rule at the region level and the
// adaptive leaf-parent below it.
const depth4Spec = "cloud:tau=8/region*2:tau=4,agg=median/edge*2:tau=2/worker*2"

// requireInvariant is the acceptance determinism matrix: the options must
// produce bit-identical results across a rerun, worker pool sizes 1/2/8, the
// memory and TCP transports, and an interrupt followed by a resume. It
// returns the reference result.
func requireInvariant(t *testing.T, cfg *fl.Config, opts func() Options) *fl.Result {
	t.Helper()
	ref, err := Run(cfg, transport.NewMemoryNetwork(), opts())
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, net Network, o Options) {
		t.Helper()
		res, err := Run(cfg, net, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameResult(t, name, res, ref)
	}
	check("rerun", transport.NewMemoryNetwork(), opts())
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		check(fmt.Sprintf("workers=%d", workers), transport.NewMemoryNetwork(), opts())
	}
	cfg.Workers = 0
	check("tcp", transport.NewTCPNetwork(), opts())

	o := opts()
	o.CheckpointDir = t.TempDir()
	interruptRun(t, cfg, o, transport.NewFaultyNetwork(transport.NewMemoryNetwork(),
		transport.FaultPlan{Seed: 4, MaxDelay: 2 * time.Millisecond}))
	o.Resume = true
	check("resumed", transport.NewMemoryNetwork(), o)
	return ref
}

// TestTreeDepth4Deterministic: a 4-level tree with per-tier τ and mixed
// aggregators is invariant under the whole determinism matrix, and resuming
// its snapshots under a different tree shape is refused.
func TestTreeDepth4Deterministic(t *testing.T) {
	cfg := buildFlatConfig(t, 73, []int{4, 4})
	cfg.T = 48
	opts := func() Options { return Options{Adaptive: true, Topology: treeTopo(t, depth4Spec)} }
	ref := requireInvariant(t, cfg, opts)
	if ref.AttackReport == nil || len(ref.AttackReport.TierAggregators) != 3 {
		t.Fatalf("robust-level run carries attack report %+v", ref.AttackReport)
	}

	// A different tree shape is a different trajectory: resuming under it
	// must be refused via the fingerprint, not silently blended. Checked
	// against a finished run's snapshots so every node holds one.
	o := opts()
	o.CheckpointDir = t.TempDir()
	if _, err := Run(cfg, transport.NewMemoryNetwork(), o); err != nil {
		t.Fatal(err)
	}
	o.Resume = true
	o.Topology = treeTopo(t, "cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2")
	o.RecvTimeout = 500 * time.Millisecond
	if _, err := Run(cfg, transport.NewMemoryNetwork(), o); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume under changed topology = %v, want wrapped checkpoint.ErrMismatch", err)
	}
}

// TestLegacySnapshotRefused: the checkpoint fingerprint carries the runtime
// generation and the derived tree shape, so a snapshot family written by the
// pre-unification 3-tier runtime — same config, same options, same node IDs,
// but another state layout — is refused up front with ErrMismatch on every
// node, never half-read into the new layout.
func TestLegacySnapshotRefused(t *testing.T) {
	cfg := buildConfig(t, 101, 0)
	dir := t.TempDir()
	opts := Options{Adaptive: true, CheckpointDir: dir, Resume: true}.withDefaults()
	// The fingerprint and entry names of the deleted cloud/edge/worker nodes.
	legacyFP := cfg.Fingerprint("cluster/hieradmo") +
		fmt.Sprintf(" adaptive=%v signal=1 ceiling=%g", opts.Adaptive, core.DefaultClampCeiling)
	dim := cfg.Model.Dim()
	fabricate := func(node string, seq int, vectors ...string) {
		t.Helper()
		mgr, err := checkpoint.NewManager(dir, node)
		if err != nil {
			t.Fatal(err)
		}
		reg := checkpoint.NewRegistry(mgr, legacyFP)
		for _, name := range vectors {
			reg.Vector(name, make([]float64, dim))
		}
		if err := reg.Save(seq); err != nil {
			t.Fatal(err)
		}
	}
	fabricate(CloudID, 1, "cloudX", "cloudY")
	for l := range cfg.Edges {
		fabricate(EdgeID(l), 2, "yMinus", "yPlus", "xPlus", "lastY")
		for i := range cfg.Edges[l] {
			fabricate(WorkerID(l, i), 4, "x", "y", "gradSum", "ySum")
		}
	}
	_, err := Run(cfg, transport.NewMemoryNetwork(), opts)
	if !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume from a legacy snapshot family = %v, want wrapped checkpoint.ErrMismatch", err)
	}
	if errors.Is(err, checkpoint.ErrFormat) {
		t.Errorf("a legacy snapshot was opened and half-read before being refused: %v", err)
	}
}

// TestTreeRestartSupervisor: a crashed leaf with a scheduled revival is
// respawned from its checkpoint on trees of any depth — the supervisor
// belongs to the one spawn loop, not to a tree shape. The depth-4 run must
// report the restart, survive it, and reproduce exactly.
func TestTreeRestartSupervisor(t *testing.T) {
	cfg := buildFlatConfig(t, 103, []int{4, 4})
	const down = "worker-1"
	run := func() *fl.Result {
		t.Helper()
		net := transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
			Seed:               5,
			CrashAtRound:       map[string]int{down: 6},
			RestartAfterRounds: map[string]int{down: 4}, // outage [6, 10): misses rounds 6 and 8
		})
		opts := tolerantOptions(0.5)
		opts.Topology = treeTopo(t, "cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2")
		opts.CheckpointDir = t.TempDir()
		res, err := Run(cfg, net, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	rep := res.FaultReport
	if rep == nil {
		t.Fatal("no fault report after a restart run")
	}
	if len(rep.Crashed) != 1 || rep.Crashed[0] != down {
		t.Errorf("Crashed = %v, want [%s]", rep.Crashed, down)
	}
	if len(rep.Restarted) != 1 || rep.Restarted[0] != down {
		t.Errorf("Restarted = %v, want [%s]: the supervisor never revived the leaf", rep.Restarted, down)
	}
	if len(rep.NodeErrors) != 1 {
		t.Errorf("NodeErrors = %v, want only the crashed incarnation's error", rep.NodeErrors)
	}
	// The respawned incarnation replays its lost interval and re-sends the
	// report for the round it died in; its parent, rounds ahead by then, must
	// reject it as stale — proof the second incarnation actually ran.
	if rep.StaleMessages == 0 {
		t.Error("no stale messages recorded; the respawned leaf's replayed report vanished")
	}
	if rep.TotalMissingWorkers() == 0 {
		t.Error("no missing-worker rounds recorded during the outage")
	}
	again := run()
	sameResult(t, "rerun", again, res)
	if fmt.Sprint(again.FaultReport.MissingWorkers) != fmt.Sprint(rep.MissingWorkers) {
		t.Errorf("rerun MissingWorkers = %v, reference %v", again.FaultReport.MissingWorkers, rep.MissingWorkers)
	}
}

// traceCounts tallies a trace's events by name, and the robust_reject /
// robust_clip events additionally by tier index.
func traceCounts(t *testing.T, buf *bytes.Buffer) (byEvent map[string]int, rejects, clips map[int]int) {
	t.Helper()
	events, err := telemetry.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byEvent, rejects, clips = map[string]int{}, map[int]int{}, map[int]int{}
	for _, e := range events {
		byEvent[e.Ev]++
		var byTier map[int]int
		switch e.Ev {
		case "robust_reject":
			byTier = rejects
		case "robust_clip":
			byTier = clips
		default:
			continue
		}
		ti, ok := e.Fields["tier_index"].(float64)
		if !ok {
			t.Fatalf("%s event without tier_index: %+v", e.Ev, e.Fields)
		}
		byTier[int(ti)]++
	}
	return byEvent, rejects, clips
}

// observed runs opts with a metrics registry and a tracer attached and
// returns the result, the registry and the trace tallies.
func observed(t *testing.T, cfg *fl.Config, opts Options) (*fl.Result, *telemetry.Registry, map[string]int, map[int]int, map[int]int) {
	t.Helper()
	var buf bytes.Buffer
	reg, tr := telemetry.NewRegistry(), telemetry.NewTracer(&buf)
	traced := *cfg
	traced.Telemetry = telemetry.New(reg, tr)
	res, err := Run(&traced, transport.NewMemoryNetwork(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	byEvent, rejects, clips := traceCounts(t, &buf)
	return res, reg, byEvent, rejects, clips
}

// TestTreeChurn composes an explicit topology with dynamic membership: on a
// depth-4 tree, a join, a leave and root-aligned re-tiering act at the
// leaf-parent level. The run must be
// invariant under the determinism matrix, and its membership report, trace
// events and fl_membership_* counters must agree exactly.
func TestTreeChurn(t *testing.T) {
	cfg := treeChurnConfig(t)
	tree := treeChurnScenario(t).tree(t, cfg)
	opts := func() Options { return Options{Adaptive: true, Tree: tree} }
	ref := requireInvariant(t, cfg, opts)
	m := ref.Membership
	if m == nil || m.Joins != 1 || m.Leaves != 1 {
		t.Fatalf("membership report %+v, want 1 join and 1 leave", m)
	}
	if m.Retierings < 1 || m.Reassignments < 1 {
		t.Fatalf("membership report %+v: the trace must include an effective re-tiering", m)
	}
	if m.InitialWorkers != 7 || m.FinalWorkers != 7 {
		t.Errorf("live workers %d→%d, want 7→7", m.InitialWorkers, m.FinalWorkers)
	}

	res, reg, byEvent, _, _ := observed(t, cfg, opts())
	sameResult(t, "observed", res, ref)
	for _, c := range []struct {
		counter, event string
		want           int
	}{
		{"fl_membership_joins_total", "membership_join", m.Joins},
		{"fl_membership_leaves_total", "membership_leave", m.Leaves},
		{"fl_membership_reassigns_total", "membership_reassign", m.Reassignments},
		{"fl_membership_retierings_total", "membership_retier", m.Retierings},
	} {
		if got := reg.Counter(c.counter).Value(); got != int64(c.want) {
			t.Errorf("%s = %d, report says %d", c.counter, got, c.want)
		}
		if got := byEvent[c.event]; got != c.want {
			t.Errorf("%d %s events, report says %d", got, c.event, c.want)
		}
	}
	if got := reg.Counter("fl_membership_gamma_migrations_total").Value(); got == 0 || got != int64(byEvent["gamma_migration"]) {
		t.Errorf("fl_membership_gamma_migrations_total = %d, trace has %d gamma_migration events", got, byEvent["gamma_migration"])
	}
	if got := reg.Gauge("fl_membership_epoch").Value(); got != float64(m.Epochs-1) {
		t.Errorf("fl_membership_epoch = %v, want final epoch %d", got, m.Epochs-1)
	}
}

// treeChurnConfig and treeChurnScenario are TestTreeChurn's run: eight
// workers under the depth-4 tree, a join, a leave and re-tiering at every
// root sync.
func treeChurnConfig(t *testing.T) *fl.Config {
	cfg := buildFlatConfig(t, 51, []int{4, 4})
	cfg.T = 48
	return cfg
}

func treeChurnScenario(t *testing.T) scenario {
	// The plan names leaves by the tree's IDs: worker-1 is leaf-parent 0's
	// second leaf, worker-6 leaf-parent 3's first.
	plan, err := membership.ParseSpec("join:worker-1@3,leave:worker-6@9")
	if err != nil {
		t.Fatal(err)
	}
	return scenario{topology: treeTopo(t, depth4Spec), churn: &plan, retier: 1}
}

// TestUnbuildableRuleRefused: a level whose rule cannot be built — a
// topology assembled in code with an out-of-range trim, which no parser
// vetted — fails the run up front, naming the level, in both engines; it is
// never aggregated with the mean instead.
func TestUnbuildableRuleRefused(t *testing.T) {
	topo := treeTopo(t, "cloud:tau=4/edge*2:tau=2/worker*2")
	topo.Levels[1].Agg = robust.Spec{Kind: robust.Trimmed, Trim: 0.7}
	cfg := buildConfig(t, 31, 2)
	if _, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true, Topology: topo}); err == nil ||
		!strings.Contains(err.Error(), `level "edge"`) {
		t.Errorf("cluster run with trimmed(0.7) = %v, want an error naming level \"edge\"", err)
	}
	tree, err := cfg.Tree(topo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.New().RunTree(cfg, tree); err == nil || !strings.Contains(err.Error(), `level "edge"`) {
		t.Errorf("simulation with trimmed(0.7) = %v, want an error naming level \"edge\"", err)
	}
}

// TestTreeAggregatorOptions composes an explicit topology with default
// aggregators merged into its tree (Tree.WithAggregators): they are the
// leaf-parent and root defaults, an explicit agg= in the spec wins over them,
// and under a persistent attack plan the run is invariant under the
// determinism matrix with report, trace and fl_robust_* counters in exact
// agreement.
func TestTreeAggregatorOptions(t *testing.T) {
	cfg := buildFlatConfig(t, 83, []int{4, 4})
	cfg.T = 48
	defended := scenario{
		topology: treeTopo(t, depth4Spec),
		attack:   byzPlan(t, "signflip:worker-1@1,scale:worker-5@1=25"),
		edge:     robust.Spec{Kind: robust.Cosine, CosMin: 0},
		cloud:    robust.Spec{Kind: robust.Clip, Clip: 0.5},
	}
	tree := defended.tree(t, cfg)
	opts := func() Options { return Options{Adaptive: true, Tree: tree} }
	ref := requireInvariant(t, cfg, opts)
	rep := ref.AttackReport
	if rep == nil {
		t.Fatal("defended run returned no attack report")
	}
	if want := []string{"clip(0.5)", "median", "cosine(0)"}; fmt.Sprint(rep.TierAggregators) != fmt.Sprint(want) {
		t.Errorf("TierAggregators = %v, want %v", rep.TierAggregators, want)
	}
	if rep.RejectedByTier[2] == 0 {
		t.Error("the leaf-parent default rejected nothing")
	}

	res, reg, _, rejects, clips := observed(t, cfg, opts())
	sameResult(t, "observed", res, ref)
	if len(rejects)+len(rep.RejectedByTier) > 0 && fmt.Sprint(rejects) != fmt.Sprint(rep.RejectedByTier) {
		t.Errorf("robust_reject events by tier %v, report says %v", rejects, rep.RejectedByTier)
	}
	if len(clips)+len(rep.ClippedByTier) > 0 && fmt.Sprint(clips) != fmt.Sprint(rep.ClippedByTier) {
		t.Errorf("robust_clip events by tier %v, report says %v", clips, rep.ClippedByTier)
	}
	if got := reg.Counter("fl_robust_rejected_total").Value(); got != int64(rep.TotalRejected()) {
		t.Errorf("fl_robust_rejected_total = %d, report says %d", got, rep.TotalRejected())
	}
	if got := reg.Counter("fl_robust_clipped_total").Value(); got != int64(rep.TotalClipped()) {
		t.Errorf("fl_robust_clipped_total = %d, report says %d", got, rep.TotalClipped())
	}
	if got := reg.Counter("fl_attack_injected_total").Value(); got != int64(rep.TotalInjected()) || got == 0 {
		t.Errorf("fl_attack_injected_total = %d, report says %d", got, rep.TotalInjected())
	}

	// An explicit agg= on a level wins over the defaults.
	defended.topology = treeTopo(t, "cloud:tau=8,agg=median/region*2:tau=4/edge*2:tau=2,agg=trimmed(0.25)/worker*2")
	explicit, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true, Tree: defended.tree(t, cfg)})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"median", "mean", "trimmed(0.25)"}; fmt.Sprint(explicit.AttackReport.TierAggregators) != fmt.Sprint(want) {
		t.Errorf("explicit TierAggregators = %v, want %v", explicit.AttackReport.TierAggregators, want)
	}
}

// TestTreeSignFlipPerTierAttack is the per-level composition property test:
// a depth-4 tree defends with cosine filtering where the attack enters (the
// leaf-parent) and the median one level up, under a persistent sign-flip
// plan. The run must reject adversarial reports, attribute every rejection
// to the right tier index in both the AttackReport and the trace events,
// and stay deterministic across reruns.
func TestTreeSignFlipPerTierAttack(t *testing.T) {
	cfg := buildFlatConfig(t, 83, []int{4, 4})
	opts := Options{Adaptive: true, Tree: scenario{
		topology: treeTopo(t, "cloud:tau=8/region*2:tau=4,agg=median/edge*2:tau=2,agg=cosine(0)/worker*2"),
		attack:   byzPlan(t, "signflip:worker-1@1,signflip:worker-5@1"),
	}.tree(t, cfg)}
	ref, _, _, rejects, clips := observed(t, cfg, opts)
	rep := ref.AttackReport
	if rep == nil {
		t.Fatal("attacked run returned no attack report")
	}
	if got := rep.Injected["signflip"]; got == 0 {
		t.Fatal("no sign-flips injected")
	}
	if rep.TotalRejected() == 0 {
		t.Fatal("sign-flip attack survived both robust tiers unrejected")
	}
	// The attack enters at the leaf-parent (tier 2); any rejection there or
	// at the region (tier 1) must carry its tier index. The root (tier 0)
	// averages plainly and must never reject.
	for tier := range rep.RejectedByTier {
		if tier != 1 && tier != 2 {
			t.Errorf("rejection attributed to tier %d, want 1 or 2", tier)
		}
	}
	if rep.RejectedByTier[2] == 0 {
		t.Error("cosine filter at the leaf-parent rejected nothing")
	}
	if want := []string{"mean", "median", "cosine(0)"}; fmt.Sprint(rep.TierAggregators) != fmt.Sprint(want) {
		t.Fatalf("TierAggregators = %v, want %v", rep.TierAggregators, want)
	}
	// Trace events are the live view of the same facts: the per-tier totals
	// must match the report exactly.
	if fmt.Sprint(rejects) != fmt.Sprint(rep.RejectedByTier) {
		t.Errorf("robust_reject events by tier %v, report says %v", rejects, rep.RejectedByTier)
	}
	for tier, n := range rep.ClippedByTier {
		if clips[tier] != n {
			t.Errorf("tier %d: %d robust_clip events, report says %d", tier, clips[tier], n)
		}
	}

	rerun, _, _, rej2, _ := observed(t, cfg, opts)
	sameResult(t, "rerun", rerun, ref)
	if fmt.Sprint(rej2) != fmt.Sprint(rejects) {
		t.Errorf("rerun rejections by tier %v, reference %v", rej2, rejects)
	}
}

// TestTreeAcrossProcessEntryPoints replays tree runs through RunNode —
// every node its own entry-point call, harness and tree spec — and checks
// bit-equality with the single-process Run, including a churn run whose
// late joiner is admitted mid-run.
func TestTreeAcrossProcessEntryPoints(t *testing.T) {
	cfg := buildConfig(t, 89, 2)
	topo := treeTopo(t, "cloud:tau=4/edge*2:tau=2/worker*2")
	for name, opts := range map[string]Options{
		"static": {Adaptive: true, Topology: topo},
		"churn":  {Adaptive: true, Tree: scenario{topology: topo, churn: respell(t, cfg, *churnPlan(t), topo), retier: 2}.tree(t, cfg)},
	} {
		ref, err := Run(cfg, transport.NewMemoryNetwork(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res := runStaticNodes(t, cfg, opts)
		sameResult(t, name, res, ref)
		if fmt.Sprint(res.Membership) != fmt.Sprint(ref.Membership) {
			t.Errorf("%s: per-node membership report %v, single-process %v", name, res.Membership, ref.Membership)
		}
	}
}

// TestTreeOptionValidation: a run's tree must be one the config can run —
// a topology matching its leaf count and horizon, never a tree resolved for
// another config, and never a Tree beside a Topology — and a churn plan must
// name the tree's leaves. A refused run still closes its network.
func TestTreeOptionValidation(t *testing.T) {
	cfg := buildConfig(t, 97, 0)
	run := func(opts Options) error {
		net := transport.NewMemoryNetwork()
		_, err := Run(cfg, net, opts)
		if _, eerr := net.Endpoint("probe"); !errors.Is(eerr, transport.ErrClosed) {
			t.Errorf("a run refused with %v left its network open", err)
		}
		return err
	}
	// Leaf-count mismatch: 8 leaves for a 4-worker config.
	if err := run(Options{Topology: treeTopo(t, "cloud:tau=4/edge*2:tau=2/worker*4")}); !errors.Is(err, fl.ErrConfig) {
		t.Errorf("leaf-count mismatch = %v, want fl.ErrConfig", err)
	}
	// Horizon misalignment: T=24 is not a multiple of the root period 16.
	if err := run(Options{Topology: treeTopo(t, "cloud:tau=16/edge*2:tau=2/worker*2")}); !errors.Is(err, topology.ErrMisaligned) {
		t.Errorf("misaligned horizon = %v, want ErrMisaligned", err)
	}
	// Trees resolved for other configs: eight leaves, and membership epochs
	// scheduled over T=48 handed a T=24 run.
	if err := run(Options{Tree: scenario{}.tree(t, buildFlatConfig(t, 97, []int{4, 4}))}); !errors.Is(err, fl.ErrConfig) {
		t.Errorf("another config's tree = %v, want fl.ErrConfig", err)
	}
	long := buildConfig(t, 97, 0)
	long.T = 48
	if err := run(Options{Tree: churnScenario(t).tree(t, long)}); !errors.Is(err, fl.ErrConfig) || !errors.Is(err, topology.ErrMisaligned) {
		t.Errorf("epochs of another horizon = %v, want fl.ErrConfig wrapping ErrMisaligned", err)
	}
	// A tree and a topology to resolve are one too many.
	if err := run(Options{Tree: scenario{}.tree(t, cfg), Topology: treeTopo(t, "cloud:tau=4/edge*2:tau=2/worker*2")}); err == nil ||
		!strings.Contains(err.Error(), "Tree and Topology") {
		t.Errorf("Tree with Topology = %v, want a refusal naming both", err)
	}
	// A churn plan naming a worker outside the tree fails at schedule
	// construction, before any node starts.
	plan, err := membership.ParseSpec("leave:worker-2-0@3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (scenario{topology: treeTopo(t, "cloud:tau=4/edge*2:tau=2/worker*2"), churn: &plan}).resolve(cfg); err == nil {
		t.Error("churn plan naming a leaf outside the tree accepted")
	}
}
