package cluster

import (
	"fmt"
	"math"
	"time"

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
	opts Options
	// att mutates this leaf's boundary reports when the run's attack plan
	// marks it Byzantine; nil for honest leaves.
	att *robust.Attacker

	// oracle draws the leaf's mini-batch gradients and state holds its
	// Algorithm 1 vectors.
	oracle   fl.GradOracle
	state    *core.Leaf
	lastLoss float64
	// lv is the leaf-parent level's rule, under which the leaf computes its
	// eq. (6) term.
	lv core.Level
	// syncedThrough is the round of the last adopted update. When an update
	// arrives for a round ahead of this leaf's own iteration count (the
	// parent fast-forwarded past syncs a quorum completed without it), the
	// leaf trains straight through to that round before reporting again —
	// the parent no longer wants the intervening rounds.
	syncedThrough int

	// report is the leaf's one outgoing message, its [y, x] headers and its
	// loss and cos slots refilled per boundary: the driver sends it before
	// the next input, so nothing of a queued report outlives the state it
	// aliases.
	report transport.Message

	// box is the leaf's outbox and phase what it does next. t is its
	// iteration count (a late joiner awaiting admission: the round it joins
	// after) and end the last iteration of its lifetime; a snapshot holds a
	// settled t, and start rebuilds all three from its number. deadline ends
	// a wait, zero until the report that opened it is out.
	box      outbox
	phase    leafPhase //flvet:allow ckptstate -- start derives it from the snapshot's iteration
	t, end   int       //flvet:allow ckptstate -- the snapshot's sequence number, and the schedule's
	deadline time.Time
}

// leafPhase is what a treeLeaf does next: train, or await the parent's
// update after a report, its RETIRE after the final one, or — a late joiner
// — its ADMIT.
type leafPhase uint8

const (
	leafTrain leafPhase = iota
	leafUpdate
	leafRetire
	leafAdmit
)

var awaited = [...]string{leafUpdate: "update", leafRetire: "retire", leafAdmit: "admit"}

func newTreeLeaf(cfg *fl.Config, ts *treeSpec, j int, x0 tensor.Vector, opts Options) *treeLeaf {
	lv := ts.level(ts.leafParent(), x0)
	newVec := nodeVectors(len(x0), lv.LeafVectors())
	opts.Interrupt = nil // a machine never blocks: the driver polls it
	return &treeLeaf{
		cfg:    cfg,
		ts:     ts,
		j:      j,
		opts:   opts,
		att:    ts.tree.AttackPlan().Attacker(ts.tree.ID(ts.depth()-1, j), 4, len(x0)),
		oracle: fl.NewGradOracle(cfg, ts.shards[j], ts.leafSampler(j), cfg.Telemetry),
		state:  core.NewLeaf(x0, lv, newVec),
		lv:     lv,

		report: transport.Message{
			Kind:    KindTierReport,
			Vectors: make([][]float64, 2),
			Scalars: make(map[string]float64, 2),
		},
	}
}

func (w *treeLeaf) id() string      { return w.ts.tree.ID(w.tier(), w.j) }
func (w *treeLeaf) tier() int       { return w.ts.depth() - 1 }
func (w *treeLeaf) outbox() *outbox { return &w.box }
func (w *treeLeaf) tau() int        { return w.ts.tau(w.ts.leafParent()) }

// initCheckpoint binds the leaf's complete mid-run state — model, momentum,
// interval accumulators, batch-sampler stream, and resync cursor — to its
// snapshots.
//
// A save at a settled boundary (update adopted, accumulators just restarted)
// persists no interval state: the accumulators' entry is empty while both
// are all +0, and the velocity reference's while it equals y (leafLayout).
func (w *treeLeaf) initCheckpoint() (*fl.Checkpointer, error) {
	ck, err := nodeCheckpointer(w.cfg, w.opts, w.ts, w.id())
	if err != nil || ck == nil {
		return nil, err
	}
	ck.Vector("x", w.state.X)
	ck.Vector("y", w.state.Y)
	ck.Dynamic("interval", w.saveInterval, w.loadInterval)
	if w.state.YStart != nil {
		ck.Dynamic("yStart", w.saveYStart, w.loadYStart)
	}
	ck.RNG("sampler", w.oracle.Sampler)
	ck.Float("lastLoss", &w.lastLoss)
	ck.Int("syncedThrough", &w.syncedThrough)
	if w.att != nil {
		// The replay stash is the attacker's only mutable state; with it in
		// the snapshot a resumed Byzantine leaf re-sends exactly the bytes
		// the uninterrupted run would have (the noise/flip/scale draws are
		// already pure functions of seed, node, and round).
		for ci, v := range w.att.PrevVectors() {
			ck.Vector(fmt.Sprintf("attackPrev%d", ci), v)
		}
		ck.Int("attackPrevRound", w.att.PrevRoundPtr())
	}
	return ck, nil
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
	for i, v := range w.state.YStart {
		if math.Float64bits(v) != math.Float64bits(w.state.Y[i]) {
			return append(dst, w.state.YStart...)
		}
	}
	return dst
}

// loadYStart runs after y is restored: dynamics load last.
func (w *treeLeaf) loadYStart(flat []float64) error {
	switch yStart := w.state.YStart; len(flat) {
	case 0:
		copy(yStart, w.state.Y)
	case len(yStart):
		copy(yStart, flat)
	default:
		return fmt.Errorf("yStart holds %d values, want 0 or %d", len(flat), len(yStart))
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

// start begins the leaf after the snapshot of iteration resumed (0: a
// fresh start). With dynamic membership the leaf's lifetime is its
// scheduled span: a late joiner idles until its natal parent ADMITs it with
// fresh state, and a planned leaver trains only through its final round.
func (w *treeLeaf) start(now time.Time, resumed int) error {
	w.t, w.end = resumed, w.cfg.T
	if sched := w.ts.tree.Membership(); sched != nil {
		join, last := sched.Span(w.j)
		w.end = last * w.tau()
		if resumed == 0 && join > 1 {
			w.t = (join - 1) * w.tau()
			w.await(now, leafAdmit)
			return nil
		}
	}
	w.next(now)
	return nil
}

// await starts a wait, whose deadline is set at the next expire, once the
// report that opened it is out.
func (w *treeLeaf) await(now time.Time, phase leafPhase) {
	w.phase, w.deadline, w.box.wake = phase, time.Time{}, now
}

// next trains on at the next expire, or ends the leaf's lifetime.
func (w *treeLeaf) next(now time.Time) {
	w.phase, w.box.wake, w.box.done = leafTrain, now, w.t >= w.end
}

// settle snapshots iteration t once its boundary has settled (update
// adopted or ridden out) and trains on. An interrupt inside the wait skips
// this save: the resumed leaf replays the interval from the previous
// snapshot and re-sends the report, bit-identical to an uninterrupted run
// (the parent discards a duplicate as stale).
func (w *treeLeaf) settle(now time.Time) {
	w.box.save(w.t)
	w.next(now)
}

// interrupt saves the state as of the last completed iteration when the
// leaf is between two iterations. A resumed run replays the rest of the
// interval from there — deterministically, since the sampler position is
// part of the snapshot — and re-sends the interval report.
func (w *treeLeaf) interrupt() {
	if w.phase == leafTrain {
		w.box.save(w.t)
	}
}

// expire runs the next iteration, or ends a wait at its deadline. A
// timeout is ridden out in quorum mode — the leaf keeps its local state and
// carries on, like a simulation non-participant — except by a joiner
// awaiting admission, and is an error otherwise.
func (w *treeLeaf) expire(now time.Time) error {
	if w.phase == leafTrain {
		return w.train(now)
	}
	if w.deadline.IsZero() {
		w.deadline = now.Add(w.opts.RecvTimeout)
	}
	switch {
	case now.Before(w.deadline):
		w.box.wake = w.deadline
	case w.phase == leafAdmit || !w.opts.tolerant():
		return fmt.Errorf("cluster: %s await %s: %w", w.id(), awaited[w.phase], transport.ErrTimeout)
	default:
		w.ts.ledger.Timeout(w.id(), w.tier())
		w.settle(now)
	}
	return nil
}

// train runs iteration t+1 and, at a leaf-parent boundary, reports the
// interval state and awaits the redistributed momentum and model (lines
// 9/14–15).
func (w *treeLeaf) train(now time.Time) error {
	t := w.t + 1
	if err := w.step(); err != nil {
		return fmt.Errorf("cluster: %s t=%d: %w", w.id(), t, err)
	}
	w.t = t
	switch {
	case t%w.tau() != 0:
		w.next(now)
	case t <= w.syncedThrough:
		// The last adopted update already covers this round: the parent
		// would reject a report for it as stale. Keep training until the
		// local iteration count catches up with the adopted state.
		w.settle(now)
	default:
		parent, err := w.parentAt(t / w.tau())
		if err != nil {
			return err
		}
		if err := w.fillReport(t, t/w.tau()); err != nil {
			return err
		}
		w.box.send(parent, w.report)
		if t == w.end && w.end < w.cfg.T {
			// Planned permanent leave: the final report is aggregated, then
			// the parent acknowledges with RETIRE and this leaf exits.
			w.await(now, leafRetire)
		} else {
			w.await(now, leafUpdate)
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
			w.ts.ledger.AttackInject(w.id(), t, kind)
			y, x, gradSum, ySum = mut[0], mut[1], mut[2], mut[3]
		}
	}
	w.report.Vectors[0], w.report.Vectors[1] = y, x
	w.report.Round, w.report.Scalars[ScalarLoss] = t, w.lastLoss
	if w.lv.Adapt {
		cos, err := w.lv.Term(gradSum, ySum, y, w.state.YStart)
		if err != nil {
			return fmt.Errorf("cluster: %s term: %w", w.id(), err)
		}
		w.report.Scalars[ScalarCos] = cos
	}
	return nil
}

// adopt takes over the [y, x] of an update or ADMIT and starts a new
// interval: the accumulators restart (core.Leaf.Adopt keeps the velocity
// reference).
func (w *treeLeaf) adopt(msg transport.Message) error {
	if len(msg.Vectors) != 2 {
		return fmt.Errorf("cluster: %s %s carries %d vectors, want 2", w.id(), msg.Kind, len(msg.Vectors))
	}
	if err := w.state.Adopt(msg.Vectors[0], msg.Vectors[1]); err != nil {
		return err
	}
	w.state.Restart()
	w.syncedThrough = msg.Round
	return nil
}

// deliver handles one message of the leaf's wait; adopt copies what it
// keeps, so the message's buffer goes back to the network at once. Updates for
// a round before the one awaited are stale leftovers; one for a later round
// means a quorum left this leaf behind, and it resynchronizes to the newer
// state. A late joiner adopts its natal parent's ADMIT — or a plain update,
// once the parent counts it a member after a resync — and trains from the
// adopted round. A planned leaver awaits the RETIRE that acknowledges its
// final report, skipping leftover redistribution traffic.
func (w *treeLeaf) deliver(now time.Time, msg transport.Message) error {
	defer msg.Release()
	switch w.phase {
	case leafUpdate:
		// A leaf reassigned to a new parent by re-tiering receives its
		// boundary update from that parent as an ADMIT; the payload is the
		// same as a regular update.
		if !(w.ts.tree.Membership() != nil && msg.Kind == KindAdmit) {
			if err := expectKind(msg, KindTierUpdate); err != nil {
				return err
			}
		}
		if msg.Round > w.t {
			w.ts.ledger.FastForward(w.id(), w.tier(), w.t, msg.Round)
		}
	case leafAdmit:
		if msg.Kind != KindAdmit && msg.Kind != KindTierUpdate {
			return fmt.Errorf("cluster: %s got %q from %q while awaiting admit", w.id(), msg.Kind, msg.From)
		}
	case leafRetire:
		switch msg.Kind {
		case KindRetire:
			w.settle(now)
			return nil
		case KindTierUpdate, KindAdmit:
			w.ts.ledger.StaleMessage(w.id(), w.tier())
			return nil
		}
		return fmt.Errorf("cluster: %s got %q from %q while awaiting retire", w.id(), msg.Kind, msg.From)
	default:
		return fmt.Errorf("cluster: %s got %q from %q while training", w.id(), msg.Kind, msg.From)
	}
	if msg.Round < w.t {
		w.ts.ledger.StaleMessage(w.id(), w.tier())
		return nil
	}
	if err := w.adopt(msg); err != nil {
		return err
	}
	if w.phase == leafAdmit {
		w.t = w.syncedThrough
	}
	w.settle(now)
	return nil
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
