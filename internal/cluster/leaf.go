package cluster

import (
	"errors"
	"fmt"
	"math"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/core"
	"hieradmo/internal/fl"
	"hieradmo/internal/robust"
	"hieradmo/internal/tensor"
	"hieradmo/internal/transport"
)

// treeLeaf is one training leaf: it runs the NAG iterations of Algorithm 1
// lines 5–6 on its own shard and reports [y, x] to its parent every
// leaf-parent period, with its own eq. (6) term when the parent adapts. The
// arithmetic is the simulation's — the same fl.GradOracle, core.Leaf and
// core.Level.Term — so the two cannot drift apart.
//
// In quorum mode a leaf whose redistributed update never arrives keeps
// training on its local state and rejoins at a later aggregation — the
// distributed counterpart of a non-participant in the simulation's
// partial-participation path.
type treeLeaf struct {
	cfg  *fl.Config
	ts   *treeSpec
	j    int // index within the leaf level
	ep   transport.Endpoint
	opts Options
	rec  *faultRecorder
	reg  *checkpoint.Registry
	// att mutates this leaf's boundary reports when the run's attack plan
	// marks it Byzantine; nil for honest leaves.
	att *robust.Attacker

	// oracle draws the leaf's mini-batch gradients and state holds its
	// Algorithm 1 vectors.
	oracle   fl.GradOracle
	state    *core.Leaf
	lastLoss float64
	// lv is the leaf-parent level's rule, under which the leaf computes its
	// eq. (6) term, and yStart the momentum the current interval started
	// from: the velocity signal's reference, kept only under that signal.
	lv     core.Level
	yStart tensor.Vector
	// syncedThrough is the round of the last adopted update. When an update
	// arrives for a round ahead of this leaf's own iteration count (the
	// parent fast-forwarded past syncs a quorum completed without it), the
	// leaf trains straight through to that round before reporting again —
	// the parent no longer wants the intervening rounds.
	syncedThrough int

	// report is the leaf's one outgoing message, its [y, x] headers and its
	// loss and cos slots refilled per boundary: Send is synchronous, so
	// nothing of a sent message outlives the call.
	report transport.Message
}

func newTreeLeaf(cfg *fl.Config, ts *treeSpec, j int, x0 tensor.Vector, ep transport.Endpoint, opts Options) *treeLeaf {
	lv := ts.level(ts.leafParent(), x0)
	velocity := lv.Adapt && lv.Signal == core.SignalVelocity
	count := core.LeafVectors
	if velocity {
		count++
	}
	newVec := nodeVectors(len(x0), count)
	w := &treeLeaf{
		cfg:    cfg,
		ts:     ts,
		j:      j,
		ep:     ep,
		opts:   opts,
		att:    ts.tree.AttackPlan().Attacker(ts.tree.ID(ts.depth()-1, j), 4, len(x0)),
		oracle: fl.NewGradOracle(cfg, ts.shards[j], ts.leafSampler(j), opts.Telemetry),
		state:  core.NewLeaf(x0, newVec),
		lv:     lv,

		report: transport.Message{
			Kind:    KindTierReport,
			Vectors: make([][]float64, 2),
			Scalars: make(map[string]float64, 2),
		},
	}
	if velocity {
		w.yStart = newVec()
		copy(w.yStart, x0)
	}
	return w
}

func (w *treeLeaf) id() string { return w.ts.tree.ID(w.ts.depth()-1, w.j) }

// initCheckpoint binds the leaf's complete mid-run state — model, momentum,
// interval accumulators, batch-sampler stream, and resync cursor — to its
// snapshot registry and applies the Resume option. It returns the iteration
// the run should continue after (0 for a fresh start).
//
// A save at a settled boundary (update adopted, accumulators just restarted)
// persists no interval state: the accumulators' entry is empty while both
// are all +0, and the velocity reference's while it equals y (leafLayout).
func (w *treeLeaf) initCheckpoint() (int, error) {
	reg, err := nodeRegistry(w.cfg, w.opts, w.ts, w.id())
	if err != nil || reg == nil {
		return 0, err
	}
	reg.Vector("x", w.state.X)
	reg.Vector("y", w.state.Y)
	reg.Dynamic("interval", w.saveInterval, w.loadInterval)
	if w.yStart != nil {
		reg.Dynamic("yStart", w.saveYStart, w.loadYStart)
	}
	reg.RNG("sampler", w.oracle.Sampler)
	reg.Float("lastLoss", &w.lastLoss)
	reg.Int("syncedThrough", &w.syncedThrough)
	if w.att != nil {
		// The replay stash is the attacker's only mutable state; with it in
		// the snapshot a resumed Byzantine leaf re-sends exactly the bytes
		// the uninterrupted run would have (the noise/flip/scale draws are
		// already pure functions of seed, node, and round).
		for ci, v := range w.att.PrevVectors() {
			reg.Vector(fmt.Sprintf("attackPrev%d", ci), v)
		}
		reg.Int("attackPrevRound", w.att.PrevRoundPtr())
	}
	w.reg = reg
	return restoreOrClear(reg, w.opts.Resume, w.opts.Telemetry, w.id())
}

// saveInterval appends the interval accumulators Σ∇F ‖ Σy to dst, or
// nothing while both are all +0 (bit pattern 0: a −0 is stored).
func (w *treeLeaf) saveInterval(dst []float64) []float64 {
	if allPositiveZero(w.state.GradSum) && allPositiveZero(w.state.YSum) {
		return dst
	}
	return append(append(dst, w.state.GradSum...), w.state.YSum...)
}

// loadInterval restores the accumulators saveInterval stored: +0 from an
// empty entry.
func (w *treeLeaf) loadInterval(flat []float64) error {
	switch n := len(w.state.GradSum); len(flat) {
	case 0:
		w.state.Restart()
	case 2 * n:
		copy(w.state.GradSum, flat[:n])
		copy(w.state.YSum, flat[n:])
	default:
		return fmt.Errorf("interval holds %d values, want 0 or %d", len(flat), 2*n)
	}
	return nil
}

// saveYStart appends the velocity reference to dst, or nothing while it is
// bitwise y (as adopt leaves it).
func (w *treeLeaf) saveYStart(dst []float64) []float64 {
	for i, v := range w.yStart {
		if math.Float64bits(v) != math.Float64bits(w.state.Y[i]) {
			return append(dst, w.yStart...)
		}
	}
	return dst
}

// loadYStart runs after y is restored: dynamics load last.
func (w *treeLeaf) loadYStart(flat []float64) error {
	switch len(flat) {
	case 0:
		copy(w.yStart, w.state.Y)
	case len(w.yStart):
		copy(w.yStart, flat)
	default:
		return fmt.Errorf("yStart holds %d values, want 0 or %d", len(flat), len(w.yStart))
	}
	return nil
}

// allPositiveZero reports whether every element of v is +0. A block of eight
// is +0 exactly when the OR of its bit patterns is 0, so it branches once
// per block.
func allPositiveZero(v []float64) bool {
	for len(v) >= 8 {
		b := v[:8:8]
		if math.Float64bits(b[0])|math.Float64bits(b[1])|math.Float64bits(b[2])|math.Float64bits(b[3])|
			math.Float64bits(b[4])|math.Float64bits(b[5])|math.Float64bits(b[6])|math.Float64bits(b[7]) != 0 {
			return false
		}
		v = v[8:]
	}
	for _, x := range v {
		if math.Float64bits(x) != 0 {
			return false
		}
	}
	return true
}

// parentAt returns the transport ID of the node this leaf reports to in
// leaf-parent round k: its natal parent, or whatever the membership
// schedule assigns for the round.
func (w *treeLeaf) parentAt(k int) (string, error) {
	lp := w.ts.leafParent()
	p := w.ts.tree.Parent[lp+1][w.j]
	if sched := w.ts.tree.Membership(); sched != nil {
		var ok bool
		if p, ok = sched.EdgeOf(k, w.j); !ok {
			return "", fmt.Errorf("cluster: %s has no parent at round %d: membership schedule divergence", w.id(), k)
		}
	}
	return w.ts.tree.ID(lp, p), nil
}

func (w *treeLeaf) run() error {
	start, err := w.initCheckpoint()
	defer closeSnapshots(w.reg)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", w.id(), err)
	}
	bTau := w.ts.tau(w.ts.leafParent())
	// With dynamic membership the leaf's lifetime is its scheduled span: a
	// late joiner idles until its natal parent ADMITs it with fresh state,
	// and a planned leaver trains only through its final round.
	T := w.cfg.T
	if sched := w.ts.tree.Membership(); sched != nil {
		join, last := sched.Span(w.j)
		T = last * bTau
		if start == 0 && join > 1 {
			if start, err = w.awaitAdmit(join); err != nil {
				return err
			}
			// Persist the adopted state so a crash between admission and the
			// first boundary resumes from the join, not from scratch.
			if err := saveSnapshot(w.reg, start, w.opts.Telemetry, w.id()); err != nil {
				return fmt.Errorf("cluster: %s: %w", w.id(), err)
			}
		}
	}
	for t := start + 1; t <= T; t++ {
		if interrupted(w.opts.Interrupt) {
			// Graceful shutdown: persist the state as of the last completed
			// iteration. A resumed run replays the rest of the interval from
			// here — deterministically, since the sampler position is part of
			// the snapshot — and re-sends the interval report.
			if err := saveSnapshot(w.reg, t-1, w.opts.Telemetry, w.id()); err != nil {
				return fmt.Errorf("cluster: %s: %w", w.id(), err)
			}
			return fmt.Errorf("cluster: %s: %w", w.id(), ErrInterrupted)
		}
		if err := w.step(); err != nil {
			return fmt.Errorf("cluster: %s t=%d: %w", w.id(), t, err)
		}
		if t%bTau != 0 {
			continue
		}
		if t <= w.syncedThrough {
			// The last adopted update already covers this round: the parent
			// would reject a report for it as stale. Keep training until the
			// local iteration count catches up with the adopted state.
			if err := saveSnapshot(w.reg, t, w.opts.Telemetry, w.id()); err != nil {
				return fmt.Errorf("cluster: %s: %w", w.id(), err)
			}
			continue
		}
		// Lines 9/14–15: report interval state, receive the redistributed
		// momentum and model.
		parent, err := w.parentAt(t / bTau)
		if err != nil {
			return err
		}
		if err := w.fillReport(t, t/bTau); err != nil {
			return err
		}
		if err := w.ep.Send(parent, w.report); err != nil {
			return fmt.Errorf("cluster: %s report: %w", w.id(), err)
		}
		if t == T && T < w.cfg.T {
			// Planned permanent leave: the final report is aggregated, then
			// the parent acknowledges with RETIRE and this leaf exits.
			err = w.awaitRetire()
		} else {
			err = w.awaitUpdate(t)
		}
		if err != nil {
			return err
		}
		// Snapshot after the boundary settles (update adopted or ridden out).
		// An interrupt inside awaitUpdate deliberately skips this save: the
		// resumed leaf then replays the interval from the previous snapshot
		// and re-sends the report, which keeps it bit-identical to a run that
		// was never interrupted (the parent discards the duplicate as stale
		// if it already processed the original).
		if err := saveSnapshot(w.reg, t, w.opts.Telemetry, w.id()); err != nil {
			return fmt.Errorf("cluster: %s: %w", w.id(), err)
		}
	}
	return nil
}

// fillReport builds the round-k report at iteration t: [y, x], the latest
// loss and, when the parent adapts, the leaf's eq. (6) term.
func (w *treeLeaf) fillReport(t, k int) error {
	st := w.state
	y, x, gradSum, ySum := st.Y, st.X, st.GradSum, st.YSum
	if w.att != nil {
		// Byzantine boundary: the attack mutates only what the leaf reports —
		// local training state stays honest, matching the compromised-client
		// threat model (DESIGN.md §7.5). All four vectors go through it, so
		// the noise streams do not depend on which of them travel: [y, x] go
		// on the wire and the accumulators into the term.
		mut, kind, hit, err := w.att.Apply(k, []tensor.Vector{y, x, gradSum, ySum})
		if err != nil {
			return fmt.Errorf("cluster: %s attack: %w", w.id(), err)
		}
		if hit {
			w.rec.injected(w.id(), t, kind)
			y, x, gradSum, ySum = mut[0], mut[1], mut[2], mut[3]
		}
	}
	w.report.Vectors[0], w.report.Vectors[1] = y, x
	w.report.Round, w.report.Scalars[ScalarLoss] = t, w.lastLoss
	if w.lv.Adapt {
		cos, err := w.lv.Term(gradSum, ySum, y, w.yStart)
		if err != nil {
			return fmt.Errorf("cluster: %s term: %w", w.id(), err)
		}
		w.report.Scalars[ScalarCos] = cos
	}
	return nil
}

// await receives messages for up to RecvTimeout, handing each to handle
// until it reports the wait settled; handle copies what it keeps, so every
// message's buffer goes back to its link as soon as handle returns. A
// timeout is ridden out in quorum mode when rideOut is set — the leaf keeps
// its local state and carries on, like a simulation non-participant — and
// is an error otherwise.
func (w *treeLeaf) await(what string, rideOut bool, handle func(transport.Message) (bool, error)) error {
	deadline := w.opts.now().Add(w.opts.RecvTimeout)
	for {
		wait := deadline.Sub(w.opts.now())
		if wait <= 0 {
			if rideOut && w.opts.tolerant() {
				w.rec.timeout(w.id())
				return nil
			}
			return fmt.Errorf("cluster: %s await %s: %w", w.id(), what, transport.ErrTimeout)
		}
		msg, err := recvInterruptible(w.ep, wait, w.opts)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			return fmt.Errorf("cluster: %s await %s: %w", w.id(), what, err)
		}
		done, err := handle(msg)
		msg.Release()
		if done || err != nil {
			return err
		}
	}
}

// adopt takes over the [y, x] of an update or ADMIT and starts a new
// interval: the accumulators restart, and the adopted momentum is the
// velocity signal's reference.
func (w *treeLeaf) adopt(msg transport.Message) error {
	if len(msg.Vectors) != 2 {
		return fmt.Errorf("cluster: %s %s carries %d vectors, want 2", w.id(), msg.Kind, len(msg.Vectors))
	}
	if err := w.state.Adopt(msg.Vectors[0], msg.Vectors[1]); err != nil {
		return err
	}
	if w.yStart != nil {
		if err := w.yStart.CopyFrom(w.state.Y); err != nil {
			return err
		}
	}
	w.state.Restart()
	w.syncedThrough = msg.Round
	return nil
}

// awaitUpdate blocks for the parent's redistributed [y, x] after the report
// at iteration t. Updates for an earlier round are stale leftovers and are
// skipped; an update for a later round means this leaf was left behind by a
// quorum and resynchronizes to the newer state.
func (w *treeLeaf) awaitUpdate(t int) error {
	return w.await("update", true, func(msg transport.Message) (bool, error) {
		// A leaf reassigned to a new parent by re-tiering receives its
		// boundary update from that parent as an ADMIT; the payload is the
		// same as a regular update.
		if !(w.ts.tree.Membership() != nil && msg.Kind == KindAdmit) {
			if err := expectKind(msg, KindTierUpdate); err != nil {
				return false, err
			}
		}
		if msg.Round < t {
			w.rec.stale(w.id())
			return false, nil
		}
		if msg.Round > t {
			// A quorum moved on without this leaf; it resynchronizes to the
			// newer state and trains straight through to the adopted round.
			w.rec.fastforward(w.id(), t, msg.Round)
		}
		return true, w.adopt(msg)
	})
}

// awaitAdmit blocks a late joiner until its natal parent admits it into the
// cohort of its join round, carrying the parent's current [y, x] as starting
// state. It returns the adopted round (the leaf trains from there). A parent
// that fast-forwarded past the join round admits with a later round; a plain
// update covering the join also counts (the parent considered this leaf a
// member already after a resync).
func (w *treeLeaf) awaitAdmit(join int) (int, error) {
	want := (join - 1) * w.ts.tau(w.ts.leafParent())
	err := w.await("admit", false, func(msg transport.Message) (bool, error) {
		if msg.Kind != KindAdmit && msg.Kind != KindTierUpdate {
			return false, fmt.Errorf("cluster: %s got %q from %q while awaiting admit", w.id(), msg.Kind, msg.From)
		}
		if msg.Round < want {
			w.rec.stale(w.id())
			return false, nil
		}
		return true, w.adopt(msg)
	})
	return w.syncedThrough, err
}

// awaitRetire blocks a planned leaver until its parent acknowledges that the
// final report was aggregated. Leftover redistribution traffic is skipped;
// in quorum mode a missing RETIRE is ridden out (the leaf has nothing left
// to do either way).
func (w *treeLeaf) awaitRetire() error {
	return w.await("retire", true, func(msg transport.Message) (bool, error) {
		switch msg.Kind {
		case KindRetire:
			return true, nil
		case KindTierUpdate, KindAdmit:
			w.rec.stale(w.id())
			return false, nil
		}
		return false, fmt.Errorf("cluster: %s got %q from %q while awaiting retire", w.id(), msg.Kind, msg.From)
	})
}

// step performs one NAG iteration (Algorithm 1 lines 5–6).
func (w *treeLeaf) step() error {
	loss, err := w.oracle.Grad(w.state.X, w.state.Grad)
	if err != nil {
		return err
	}
	w.lastLoss = loss
	return w.state.Step(w.cfg.Eta, w.cfg.Gamma)
}
