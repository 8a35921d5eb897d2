package core

import (
	"cmp"
	"errors"
	"fmt"

	"hieradmo/internal/fl"
	"hieradmo/internal/parallel"
	"hieradmo/internal/quant"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/tensor"
	"hieradmo/internal/topology"
)

// Rule is one row of the algorithm table: everything that distinguishes one
// simulated algorithm from another. Run is the one in-process driver for all
// of them — HierAdMo, HierAdMo-R and the nine baselines of internal/baseline
// — around the kernel of kernel.go; a row whose server and worker rules are
// Algorithm 1 configurations carries no arithmetic of its own.
type Rule struct {
	// Algorithm is the report name (fl.Algorithm's Name).
	Algorithm string
	// Flat runs the row on the tree's flat view (topology.Tree.Flat), the
	// two-tier setup the paper's fair comparison gives the flat algorithms:
	// every leaf reports straight to the root every root period (τ·π) with
	// its global weight D(i,ℓ)/D. Otherwise the run is the tree itself —
	// client–edge–cloud on the configuration's own tree: the leaves report
	// to their leaf parent every τ, and every level above averages its
	// children every period of its own.
	Flat bool
	// ShipsMomentum reports whether a synchronization moves momentum state
	// next to the model (the Fig. 2(h)/(l) payload).
	ShipsMomentum bool
	// Nesterov makes the leaves take the kernel's step with cfg.Gamma;
	// without it they take it with γ = 0, which is plain SGD.
	Nesterov bool
	// Level is the rule of the tier the workers report to; the zero Level is
	// the plain average. LevelAt fills in Tau, and Gamma (cfg.GammaEdge, or
	// the tree's explicit gamma=) at a momentum level; RunTree fills in X0.
	Level Level
	// Hooks builds what the rule adds where its server or worker rule is not
	// Algorithm 1 (nil for a pure row), drawing at most Extra(leaves, parents)
	// model-sized vectors from the binding.
	Hooks func(*Binding) Hooks
	Extra func(leaves, parents int) int

	// hier carries the run options that stay HierAdMo's: the participation
	// fraction RunTree writes onto the tree, uplink quantization, the γℓ
	// observer.
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

// TreeOf returns the tree the row runs when handed tree: its flat view for
// a Flat row, tree itself otherwise. A tree without a flat view is refused
// with ErrTree.
func (r *Rule) TreeOf(tree *topology.Tree) (*topology.Tree, error) {
	if !r.Flat {
		return tree, nil
	}
	flat, err := tree.Flat()
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrTree, r.Algorithm, err)
	}
	return flat, nil
}

// RuleOf returns the table row behind a simulated algorithm, so callers that
// need a row's facts (its tree, payload) read them from the row the driver
// runs instead of keeping a second table keyed by name.
func RuleOf(alg fl.Algorithm) (*Rule, bool) {
	rowed, ok := alg.(interface{ Row() *Rule })
	if !ok {
		return nil, false
	}
	return rowed.Row(), true
}

// ErrTree marks a rule the simulation cannot run on a tree resolved from a
// topology spec. The error names the combination: the simulation never runs
// a different tree than the one it was handed.
var ErrTree = errors.New("core: the simulation cannot run this rule on this tree")

// baselineVariant marks the state layout of rules without HierAdMo options in
// the checkpoint fingerprint: their snapshots hold kernel leaves and tiers,
// not the per-algorithm vectors the hand-written loops registered.
const baselineVariant = "layout=leaf-tier"

// simLevel is one level of the stack, bottom-up: level 0 aggregates the
// leaves, the last level is the root. Its nodes' cohorts and data weights
// are the tree's (Tree.Children), their hand-offs too (Tree.Handoff).
type simLevel struct {
	tiers []*Tier
	// level is the tree level the nodes sit at.
	level  int
	period int
}

// sim is the state of one Run.
type sim struct {
	rule   *Rule
	hn     *fl.Harness
	sink   *telemetry.Sink
	hooks  Hooks
	tree   *topology.Tree
	levels []simLevel
	// leaves is the leaf state in the tree's leaf order, and reported[j]
	// marks leaf j a reporter of the leaf parents' current round, from its
	// uplink to the round's hand-off.
	leaves   []*Leaf
	reported []bool
	// attackers[j] mutates leaf j's reports (nil if honest); nil without a plan.
	attackers []*robust.Attacker
	// ledger records the run's counted facts, and the run's reports are
	// built from its tally. Like the cluster's, it covers what this process
	// ran: a resumed run counts from its resume on.
	ledger telemetry.Ledger
	// fullIdx is the everyone-reported position list; a sampled round's is
	// the tree's (topology.Tree.Sample).
	fullIdx []int

	quantizer *quant.Quantizer
	// quantBuf holds the four quantized uplink copies per participant.
	quantBuf []tensor.Vector //flvet:allow ckptstate -- per-round scratch, refilled from the workers' state before it is read
}

// stack lays out a run bottom-up from its tree — the levels and their
// periods, no state yet. Level 0 is the tier the leaves report to, the
// tree's leaf parents.
func (r *Rule) stack(tree *topology.Tree) ([]simLevel, error) {
	if err := r.runs(tree); err != nil {
		return nil, err
	}
	lp := tree.LeafParent()
	levels := make([]simLevel, lp+1)
	count := 0
	for i := 0; i <= lp; i++ {
		count += tree.Width(i)
	}
	tiers := make([]*Tier, count)
	for k := range levels {
		i := lp - k
		lev := &levels[k]
		lev.level, lev.period = i, tree.Levels[i].Tau
		lev.tiers, tiers = tiers[:tree.Width(i):tree.Width(i)], tiers[tree.Width(i):]
	}
	return levels, nil
}

// LevelAt is the rule the nodes of tree level i run, resolved here for both
// engines. Where the leaves report — the leaf parents — it is the row's
// Level at the run's γℓ (cfg.GammaEdge), with a spec's explicit gamma /
// adapt in their place; every level above runs the plain average, or the
// momentum step where the spec fixes a γ. Tau is the
// level's period, and Agg a fresh aggregator for the level's robust rule
// (tree.Levels[i].Agg), since an aggregator holds its node's scratch; the
// caller fills in X0.
func (r *Rule) LevelAt(tree *topology.Tree, cfg *fl.Config, i int) (Level, error) {
	spec := tree.Levels[i]
	lv := Level{Momentum: spec.Gamma != 0, Gamma: spec.Gamma}
	if i == tree.LeafParent() {
		lv = r.Level
		if lv.Momentum {
			lv.Gamma = cfg.GammaEdge
		}
		if spec.HasGamma || spec.HasAdapt {
			if spec.HasGamma {
				lv.Gamma = spec.Gamma
			}
			if spec.HasAdapt {
				lv.Adapt = spec.Adapt
			}
			lv.Momentum = lv.Adapt || lv.Gamma != 0
		}
	}
	lv.Tau = spec.Tau
	if spec.Agg.Robust() {
		agg, err := robust.New(spec.Agg)
		if err != nil {
			return Level{}, fmt.Errorf("core: level %q of %s: %w", spec.Name, tree, err)
		}
		lv.Agg = agg
	}
	return lv, nil
}

// runs checks that the simulation runs the rule on tree as the tree says.
// A spec's tree refuses, with ErrTree, a hooked row (its hooks are written
// against the client–edge–cloud and flat views), and any tree γ / adapt
// attributes of its leaf parents when the rule has no momentum level there.
// Membership epochs run only under unhooked rows, as the cluster runs them.
func (r *Rule) runs(tree *topology.Tree) error {
	if r.Hooks != nil && tree.Spec != nil {
		return fmt.Errorf("%w: %s hooks rules of its own into the client–edge–cloud and flat views, not into %s",
			ErrTree, r.Algorithm, tree)
	}
	if tree.Membership() != nil && r.Hooks != nil {
		return fmt.Errorf("%w: %s does not run the membership epochs of %s", ErrTree, r.Algorithm, tree)
	}
	if lv := tree.Levels[tree.LeafParent()]; (lv.HasGamma || lv.HasAdapt) && !r.Level.Momentum {
		return fmt.Errorf("%w: %s has no momentum level for the gamma/adapt attributes of level %q of %s",
			ErrTree, r.Algorithm, lv.Name, tree)
	}
	return nil
}

// Run implements fl.Algorithm: RunTree over the configuration's own cloud /
// edge / worker tree.
func (r *Rule) Run(cfg *fl.Config) (*fl.Result, error) {
	tree, err := cfg.Tree(nil)
	if err != nil {
		return nil, err
	}
	return r.RunTree(cfg, tree)
}

// RunTree is the simulation loop every rule shares, over a tree cfg.Tree
// resolved — the configuration's own, or a topology spec's, which is the
// tree the distributed runtime runs for the same spec — or over its flat
// view for a Flat row (TreeOf). HierAdMo's participation fraction is
// written onto the tree first (topology.Tree.WithParticipation): every
// round's participants are the tree's.
func (r *Rule) RunTree(cfg *fl.Config, tree *topology.Tree) (*fl.Result, error) {
	if r.hier != nil {
		sampled, err := tree.WithParticipation(r.hier.participation, cfg.Seed, cfg.T)
		if err != nil {
			return nil, err
		}
		tree = sampled
	}
	tree, err := r.TreeOf(tree)
	if err != nil {
		return nil, err
	}
	hn, err := fl.NewHarness(cfg, tree)
	if err != nil {
		return nil, err
	}
	res := hn.NewResult(r.Algorithm)
	x0 := hn.InitParams()
	dim := len(x0)
	sink := hn.Sink()
	m := sink.M()

	levels, err := r.stack(tree)
	if err != nil {
		return nil, err
	}
	numLeaves := tree.NumLeaves()
	top := len(levels) - 1

	// All run state — the leaves, every tier, the eval model, the
	// quantized-uplink buffers and the rule's own vectors — lives in one
	// pooled slab, so repeated runs (benchmarks, sweeps, tests) recycle a
	// single arena instead of re-allocating hundreds of model-sized vectors,
	// and a worker's vectors stay cache-line aligned and disjoint from its
	// neighbours'. A node's tier is sized for its largest cohort
	// (Tree.Fanout), which for a leaf parent can change between membership
	// epochs.
	maxFan := 0
	vecCount := LeafVecs*numLeaves + 1
	for _, lev := range levels {
		lv, err := r.LevelAt(tree, cfg, lev.level)
		if err != nil {
			return nil, err
		}
		vecCount += len(lev.tiers) * lv.Vectors()
		for n := range lev.tiers {
			maxFan = max(maxFan, tree.Fanout(lev.level, n))
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
		vecCount += r.Extra(numLeaves, len(levels[0].tiers))
	}
	slab := tensor.GetSlab(vecCount * tensor.Padded(dim))
	defer tensor.PutSlab(slab)
	newVec := func() tensor.Vector { return slab.Alloc(dim) }

	// Algorithm 1 lines 1–2: every leaf and tier starts at x⁰. xs lists the
	// leaves' models (the headers never rebind) for the evaluation average.
	leaves := make([]*Leaf, numLeaves)
	xs := make([]tensor.Vector, numLeaves)
	for j := range leaves {
		leaves[j] = NewLeaf(x0, newVec)
		xs[j] = leaves[j].X
	}
	for k, lev := range levels {
		for n := range lev.tiers {
			lv, err := r.LevelAt(tree, cfg, lev.level)
			if err != nil {
				return nil, err
			}
			lv.X0 = x0
			tier := NewTier(lv, tree.Fanout(lev.level, n), newVec)
			lev.tiers[n] = tier
			if k == 0 {
				continue
			}
			// A level above the leaves reads its children's aggregates, whose
			// vector headers are stable for the whole run (every update
			// rewrites contents in place): its inputs are wired once.
			for j, c := range tree.Kids[lev.level][n] {
				child := levels[k-1].tiers[c]
				tier.Y[j], tier.X[j] = child.YMinus, child.XPlus
			}
		}
	}
	// Each leaf the plan names gets its executor, keyed by its transport ID as
	// a cluster leaf's is; a plan-less run builds none and reads no ID.
	var attackers []*robust.Attacker
	if plan := tree.AttackPlan(); plan != nil {
		attackers = make([]*robust.Attacker, numLeaves)
		for j := range attackers {
			attackers[j] = plan.Attacker(tree.ID(tree.Depth()-1, j), 4, dim)
		}
	}
	evalModel := newVec()
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

	s := &sim{rule: r, hn: hn, sink: sink, tree: tree, levels: levels, leaves: leaves, reported: make([]bool, numLeaves),
		attackers: attackers, ledger: telemetry.NewLedger(sink, tree.Depth()),
		fullIdx: fullIdx, quantizer: quantizer, quantBuf: quantBuf}

	// Crash recovery: register the run's state, then resume after the last
	// snapshotted iteration (start = 0 without a snapshot). The variant folds
	// what lives outside fl.Config into the fingerprint; a run that snapshots
	// nothing does not format it.
	variant := ""
	if cfg.CheckpointDir != "" {
		variant = baselineVariant
		if r.hier != nil {
			variant = r.hier.variant()
		}
		if tree.Spec != nil || tree.Flattened() {
			variant += " topology=" + tree.String()
		}
		variant += tree.Scenario()
	}
	ck, err := hn.Checkpointer(r.Algorithm, variant, res)
	if err != nil {
		return nil, err
	}
	defer ck.Close()
	s.register(ck)
	if r.Hooks != nil {
		s.hooks = r.Hooks(&Binding{Cfg: cfg, X0: x0, Leaves: numLeaves,
			Parents: len(levels[0].tiers), NewVec: newVec, Ck: ck})
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
		if _, err := hn.Grad(j, w.X, w.Grad); err != nil {
			return err
		}
		if s.hooks.Step != nil {
			return s.hooks.Step(j, w)
		}
		return w.Step(cfg.Eta, gamma)
	}
	pool := parallel.WithWorkers(hn.Workers())
	roundLen := levels[0].period
	ckEvery := cmp.Or(cfg.CheckpointEvery, cfg.Tau)

	for t := start + 1; t <= cfg.T; t++ {
		if sink.Tracing() && (t-1)%roundLen == 0 {
			sink.Emit("round_start",
				telemetry.Int("k", (t-1)/roundLen+1),
				telemetry.Int("t", t))
		}
		iterStart := Stopwatch(sink)
		// Under membership only the epoch's live leaves train: a late
		// joiner's batch stream stays untouched until it is admitted.
		if _, live := tree.Live(t); live != nil {
			err = parallel.ForEach(len(live), func(i int) error { return train(live[i]) }, pool)
		} else {
			err = parallel.ForEach(numLeaves, train, pool)
		}
		if err != nil {
			return nil, err
		}
		lap(m.IterationSeconds, iterStart)
		m.Round.Set(float64(t))

		// Aggregation, bottom-up: a level's nodes run their round (lines 7–16
		// at the workers' parents, 17–24 above) every period iterations, and
		// hand it off once every one of them has aggregated — a leaf
		// re-tiered to another parent reports to its old one. The reductions
		// stay sequential in node-index order: they cost O(L·dim) against the
		// workers' O(N·batch·model) training phase, and the fixed order keeps
		// the quantizer's rounding stream and the γℓ observer delivery
		// deterministic.
		for k := range levels {
			if t%levels[k].period != 0 {
				continue
			}
			for n := range levels[k].tiers {
				if err := s.round(t, k, n); err != nil {
					return nil, err
				}
			}
			if err := s.handoff(t, k); err != nil {
				return nil, err
			}
		}

		if sink.Tracing() && t%roundLen == 0 {
			sink.Emit("round_end",
				telemetry.Int("k", t/roundLen),
				telemetry.Int("t", t))
		}

		if hn.ShouldEval(t) {
			// The global data-weighted worker-model average is the evaluation
			// point between aggregation instants. Under membership it is taken
			// over the leaves of iteration t+1's epoch: at a leaf-parent
			// boundary, the next cohort, which adopted the aggregate — a
			// leaver's final report went into it, but the leaver keeps its own
			// model.
			weights, _ := tree.Live(t + 1)
			if err := tensor.WeightedSum(evalModel, weights, xs); err != nil {
				return nil, fmt.Errorf("core: evaluation average at t=%d: %w", t, err)
			}
			if err := hn.RecordPoint(res, t, evalModel); err != nil {
				return nil, err
			}
		}

		// The final iteration is not snapshotted: the run is about to produce
		// its final artifact, and a snapshot there would only be re-restored
		// as a completed run.
		if t%ckEvery == 0 && t != cfg.T {
			if err := ck.Save(t); err != nil {
				return nil, err
			}
		}
	}

	// T is a multiple of τπ, so the root's final model is the run's output.
	if err := hn.Finish(res, levels[top].tiers[0].XPlus); err != nil {
		return nil, err
	}
	res.Report(tree, s.ledger.Tally(), fl.FaultReport{})
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
		parent, pos := s.tree.Natal(j)
		at := fmt.Sprintf("worker/%d/%d/", parent, pos)
		ck.Vector(at+"x", w.X)
		ck.Vector(at+"y", w.Y)
		ck.Vector(at+"gradSum", w.GradSum)
		ck.Vector(at+"ySum", w.YSum)
		if s.attackers != nil && s.attackers[j] != nil {
			for c, v := range s.attackers[j].PrevVectors() {
				ck.Vector(fmt.Sprintf("%sattackPrev%d", at, c), v)
			}
			ck.Int(at+"attackPrevRound", s.attackers[j].PrevRoundPtr())
		}
	}
	for k, lev := range s.levels {
		for n, tier := range lev.tiers {
			if k == len(s.levels)-1 {
				ck.Vector("cloud/x", tier.XPlus)
				ck.Vector("cloud/y", tier.YMinus)
				if tier.lv.Momentum {
					// Only a momentum level reads its y₊ history back.
					ck.Vector("cloud/yPlus", tier.YPlus)
				}
				continue
			}
			// The leaf parents keep the edge names; the middle tiers of a
			// deeper tree are named by stack level.
			at := fmt.Sprintf("edge/%d/", n)
			if k > 0 {
				at = fmt.Sprintf("tier/%d/%d/", k, n)
			}
			ck.Vector(at+"xPlus", tier.XPlus)
			ck.Vector(at+"yPlus", tier.YPlus)
			ck.Vector(at+"yMinus", tier.YMinus)
		}
	}
	if s.quantizer != nil {
		ck.RNG("quantizer", s.quantizer.RNG())
	}
}

// round drives one aggregation of node n at level k at iteration t: it
// assembles the reports, hands the round to the kernel and the rule's hook,
// and publishes the outcome; handoff redistributes it.
func (s *sim) round(t, k, n int) error {
	lev := &s.levels[k]
	tier := lev.tiers[n]
	started := Stopwatch(s.sink)
	kids, weights := s.tree.Children(lev.level, n, t/lev.period)
	idx := s.fullIdx[:len(kids)]
	carry, migrated := 1.0, false
	if k == 0 {
		// A sampled round's reporters are the tree's sample, the same one the
		// cluster's leaf parents wait for.
		if sample := s.tree.Sample(n, t/lev.period); sample != nil {
			idx = sample
		}
		if err := s.uplink(t, tier, kids, idx); err != nil {
			return err
		}
		carry, migrated = s.tree.Carry(n, t/lev.period)
	}
	out, err := tier.Update(weights, idx, carry)
	if err != nil {
		return fmt.Errorf("core: level %d node %d round at t=%d: %w", k, n, t, err)
	}
	if s.hooks.After != nil {
		if err := s.hooks.After(k, n, tier, weights); err != nil {
			return fmt.Errorf("core: %s hook at t=%d: %w", s.rule.Algorithm, t, err)
		}
	}

	s.rule.Publish(&s.ledger, s.tree, lev.level, n, t, tier, out, migrated, started)
	sink := s.sink
	if k == len(s.levels)-1 && sink.Tracing() {
		// edges counts the reports the cloud averaged: edge nodes, or the
		// workers themselves in the flat view.
		sink.Emit("cloud_aggregate",
			telemetry.Int("t", t),
			telemetry.Int("edges", len(idx)))
	} else if k == 0 && sink.Tracing() {
		fields := []telemetry.Field{
			telemetry.Int("t", t),
			telemetry.Int("edge", n),
			telemetry.Int("participants", len(idx)),
			telemetry.Float("gamma", out.Applied),
		}
		if tier.lv.Adapt {
			fields = append(fields, telemetry.Float("cos", out.Cos))
		}
		sink.Emit("edge_aggregate", fields...)
	}
	out.RecordVerdicts(&s.ledger, s.tree, lev.level, n, t, kids, idx)
	return nil
}

// handoff redistributes the rounds the nodes of level k ran at iteration t,
// each to its hand-off cohort (topology.Tree.Handoff), once all of them have
// aggregated, and records each hand-off's membership facts as the
// distributed nodes do (RecordHandoff). At the leaf parents (lines 14–15)
// the cohort's reporters and newcomers adopt the aggregate and restart
// their interval; a non-participant keeps its local state, and a leaver
// its own model. Above (lines 20–23) every tier and every leaf of the
// subtree adopts it, interval accumulators untouched: the leaf parents
// restarted this round's reporters a moment ago.
func (s *sim) handoff(t, k int) error {
	lev := &s.levels[k]
	for n, tier := range lev.tiers {
		h := s.tree.Handoff(lev.level, n, t/lev.period)
		RecordHandoff(&s.ledger, s.tree, lev.level, t, h)
		if k > 0 {
			if err := s.adopt(t, k, h.Cohort, tier.YMinus, tier.XPlus); err != nil {
				return err
			}
			continue
		}
		for _, j := range h.Cohort {
			if !s.reported[j] && !h.Joined(j) {
				continue
			}
			w := s.leaves[j]
			if err := w.Adopt(tier.YMinus, tier.XPlus); err != nil {
				return err
			}
			w.Restart()
		}
	}
	if k == 0 {
		clear(s.reported)
	}
	return nil
}

// adopt hands the aggregate [y, x] of a level-k round at iteration t to the
// cohort it goes to: the leaves themselves below the leaf parents, or tiers
// of the level below, each handing it on to its own hand-off cohort.
func (s *sim) adopt(t, k int, cohort []int, y, x tensor.Vector) error {
	if k == 0 {
		for _, j := range cohort {
			if err := s.leaves[j].Adopt(y, x); err != nil {
				return err
			}
		}
		return nil
	}
	below := &s.levels[k-1]
	for _, c := range cohort {
		if err := below.tiers[c].Adopt(y, x); err != nil {
			return err
		}
		if err := s.adopt(t, k-1, s.tree.Handoff(below.level, c, t/below.period).Cohort, y, x); err != nil {
			return err
		}
	}
	return nil
}

// uplink assembles the reports of a leaf-parent round (Alg. 1 line 9) into
// the tier e from the participating workers idx of the cohort kids: it traces their training losses,
// points the tier's report slots at their state — or, under a configured
// quantizer, at compressed copies (in reusable slab vectors), never the
// workers' local state — and, at an adaptive level, computes each worker's
// eq. (6) term from what it reports, as a cluster leaf does before sending.
// An attacker mutates its report first, at a cluster leaf's round k = t/period.
func (s *sim) uplink(t int, e *Tier, kids, idx []int) error {
	if s.sink.Tracing() {
		// The workers trained on the goroutine pool, but their per-step
		// losses are re-read here, in fixed participant order, so the trace
		// stays deterministic at every pool size.
		for _, i := range idx {
			parent, pos := s.tree.Natal(kids[i])
			s.sink.Emit("worker_train",
				telemetry.Int("t", t),
				telemetry.Int("edge", parent),
				telemetry.Int("worker", pos),
				telemetry.Float("loss", s.hn.LastLoss(kids[i])))
		}
	}
	for j, i := range idx {
		leaf := kids[i]
		s.reported[leaf] = true
		w := s.leaves[leaf]
		y, x, gradSum, ySum := w.Y, w.X, w.GradSum, w.YSum
		if s.attackers != nil && s.attackers[leaf] != nil {
			id := s.tree.ID(s.tree.Depth()-1, leaf)
			mut, kind, hit, err := s.attackers[leaf].Apply(t/s.levels[0].period, []tensor.Vector{y, x, gradSum, ySum})
			if err != nil {
				return fmt.Errorf("core: %s attack: %w", id, err)
			}
			if hit {
				y, x, gradSum, ySum = mut[0], mut[1], mut[2], mut[3]
				s.ledger.AttackInject(id, t, kind)
			}
		}
		if s.quantizer != nil {
			q := s.quantBuf[4*j : 4*j+4]
			for c, src := range []tensor.Vector{y, x, gradSum, ySum} {
				if err := q[c].CopyFrom(src); err != nil {
					return err
				}
			}
			y, x, gradSum, ySum = q[0], q[1], q[2], q[3]
			for _, v := range q {
				s.quantizer.Roundtrip(v)
			}
		}
		e.Y[j], e.X[j], e.GradSum[j] = y, x, gradSum
		if e.lv.Adapt {
			cos, err := e.lv.Term(gradSum, ySum)
			if err != nil {
				parent, pos := s.tree.Natal(leaf)
				return fmt.Errorf("core: worker %d/%d term: %w", parent, pos, err)
			}
			e.Cos[j] = cos
		}
	}
	return nil
}
