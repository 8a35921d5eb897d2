package cluster

import (
	"fmt"
	"slices"
	"time"

	"hieradmo/internal/core"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/tensor"
	"hieradmo/internal/transport"
)

// tierNode is one aggregating node of a run, parameterized by its level: it
// collects child reports every τℓ iterations, applies the level's
// aggregation rule and momentum update, redistributes the result, and — on
// every level but the root — synchronizes with its own parent every
// τ_{ℓ−1}/τℓ rounds. The root additionally owns the accuracy curve and the
// run Result.
//
// What varies by level is what the children are. The leaf-parent level
// collects training-leaf reports, renormalizes data weights over the
// survivors of a partial round exactly like the simulation's
// partial-participation path (a matched cohort is bit-identical to
// core.WithParticipation), adapts γℓ (eq. (6)–(7)), and — under dynamic
// membership — admits, retires and migrates across cohort changes. Every
// other level's children are aggregators with durable state, so a missing
// child's last report is substituted for at most one consecutive round
// before the run fails fast. On the config-derived cloud/edge/worker shape
// these are Algorithm 1's edge (lines 10–15) and cloud (lines 17–23).
type tierNode struct {
	cfg  *fl.Config
	hn   *fl.Harness
	ts   *treeSpec
	lvl  int
	idx  int
	opts Options

	// tier is the node's Algorithm 1 state and update arithmetic (see
	// internal/core); everything else here decides which reports reach it.
	tier *core.Tier
	// losses holds each child's most recently reported loss by the child's
	// index in its level (cohorts change between rounds under dynamic
	// membership, so positions are not stable keys), keeping the weighted
	// loss well-defined when stragglers miss a round.
	losses map[int]float64
	// pending stashes reports from children running ahead of this node (a
	// child that rode out a lost update keeps going) until the node's own
	// round catches up with them.
	pending []transport.Message

	// lastYRep/lastXRep/missStreak implement the substitution semantics at
	// levels whose children are aggregators; nil at the leaf-parent. The
	// tier's report slots point at them permanently, and everyone lists all
	// their positions: after substitution every child has "reported".
	lastYRep, lastXRep []tensor.Vector
	missStreak         []int
	everyone           []int

	// epoch is the membership epoch of the last snapshotted round, persisted
	// so a resume can verify it restores the adapted tree.
	epoch int

	// res and weightedLoss live on the root (res == nil elsewhere).
	res          *fl.Result
	weightedLoss float64

	// reports and reporters are collect's per-round results, sized once for
	// the largest cohort. A slotted report keeps its buffer from the
	// network's free list until the aggregation has consumed it.
	reports   []transport.Message
	reporters []int
	// out is the payload of every outgoing update and parent report, built
	// once: Vectors is [y_ℓ−, x_ℓ+] (the tier never rebinds them), Scalars
	// the loss slot a parent report fills in. The driver sends what the
	// outbox queues before the next input, so nothing of a queued message
	// outlives the state it aliases.
	out transport.Message

	// box is the node's outbox; phase and k say where its protocol stands:
	// collecting or syncing round k, or (tierBegin) past it.
	// A snapshot holds a settled round; start rebuilds these from its number.
	box   outbox
	phase tierPhase //flvet:allow ckptstate -- start derives it from the snapshot's round
	k     int       //flvet:allow ckptstate -- the snapshot's sequence number
	// kids, quorum and got are round k's cohort, the reporters it needs and
	// those slotted so far. deadline ends the collect — from quorum on, the
	// straggler grace — or the parent sync, zero until its report is out.
	kids        []int //flvet:allow ckptstate -- a collect's, which never spans a snapshot
	quorum, got int   //flvet:allow ckptstate -- a collect's, which never spans a snapshot
	deadline    time.Time
}

// tierPhase is what a tierNode awaits: the start of round k+1 (once the
// outbox, which aliases the state that round updates, is flushed), round
// k's reports, or the parent's update after the round-k report.
type tierPhase uint8

const (
	tierBegin tierPhase = iota
	tierCollect
	tierSync
)

func newTierNode(cfg *fl.Config, hn *fl.Harness, ts *treeSpec, lvl, idx int, x0 tensor.Vector, opts Options) *tierNode {
	// The tier is sized for the node's largest cohort across membership
	// epochs.
	fan := ts.tree.Fanout(lvl, idx)
	lv := ts.level(lvl, x0)
	count := lv.Vectors()
	if lvl != ts.leafParent() {
		count += 2 * fan // the substitution ledgers lastYRep, lastXRep
	}
	newVec := nodeVectors(len(x0), count)
	opts.Interrupt = nil // a machine never blocks: the driver polls it
	n := &tierNode{
		cfg:    cfg,
		hn:     hn,
		ts:     ts,
		lvl:    lvl,
		idx:    idx,
		opts:   opts,
		tier:   core.NewTier(lv, fan, newVec),
		losses: make(map[int]float64),

		reports:   make([]transport.Message, fan),
		reporters: make([]int, 0, fan),
	}
	n.out = transport.Message{
		Vectors: [][]float64{n.tier.YMinus, n.tier.XPlus},
		Scalars: make(map[string]float64, 1),
	}
	if lvl == 0 {
		n.res = hn.NewResult(ts.rule.Algorithm + "/cluster")
	}
	if !n.leafParent() {
		n.lastYRep = make([]tensor.Vector, fan)
		n.lastXRep = make([]tensor.Vector, fan)
		n.missStreak = make([]int, fan)
		n.everyone = make([]int, fan)
		for c := 0; c < fan; c++ {
			n.lastYRep[c], n.lastXRep[c] = newVec(), newVec()
			copy(n.lastYRep[c], x0)
			copy(n.lastXRep[c], x0)
			n.tier.Y[c], n.tier.X[c] = n.lastYRep[c], n.lastXRep[c]
			n.everyone[c] = c
		}
	}
	return n
}

// nodeVectors is the vector source of a cluster node: the count vectors of
// the model dimension it draws are carved from one block, so a node's state
// is one allocation however many vectors its role needs. Each vector's
// capacity ends where it does.
func nodeVectors(dim, count int) func() tensor.Vector {
	block := tensor.NewVector(dim * count)
	return func() tensor.Vector {
		v := block[:dim:dim]
		block = block[dim:]
		return v
	}
}

func (n *tierNode) id() string       { return n.ts.tree.ID(n.lvl, n.idx) }
func (n *tierNode) outbox() *outbox  { return &n.box }
func (n *tierNode) leafParent() bool { return n.lvl == n.ts.leafParent() }
func (n *tierNode) tau() int         { return n.ts.tau(n.lvl) }
func (n *tierNode) rounds() int      { return n.cfg.T / n.tau() }

// want is the iteration round k's reports and updates carry.
func (n *tierNode) want() int { return n.k * n.tau() }

// churning reports whether this node's cohort can change between rounds:
// dynamic membership acts at the leaf-parent level only.
func (n *tierNode) churning() bool { return n.ts.tree.Membership() != nil && n.leafParent() }

// initCheckpoint binds the node's aggregation state — both momenta, the
// model, the per-child loss cache, the substitution ledgers, the ride-ahead
// stash and, on the root, the accuracy curve — to its snapshots.
func (n *tierNode) initCheckpoint() (*fl.Checkpointer, error) {
	ck, err := nodeCheckpointer(n.cfg, n.opts, n.ts, n.id())
	if err != nil || ck == nil {
		return nil, err
	}
	ck.Vector("yMinus", n.tier.YMinus)
	ck.Vector("yPlus", n.tier.YPlus)
	ck.Vector("xPlus", n.tier.XPlus)
	ck.Dynamic("losses", n.encodeLosses, n.decodeLosses)
	for c := range n.lastYRep {
		ck.Vector(fmt.Sprintf("lastY/%d", c), n.lastYRep[c])
		ck.Vector(fmt.Sprintf("lastX/%d", c), n.lastXRep[c])
		ck.Int(fmt.Sprintf("missStreak/%d", c), &n.missStreak[c])
	}
	if n.ts.tree.Membership() != nil {
		ck.Int("membEpoch", &n.epoch)
	}
	if n.res != nil {
		ck.Float("weightedLoss", &n.weightedLoss)
		ck.Curve("curve", n.res)
	}
	ck.Dynamic("pending", n.stashPending, n.unstashPending)
	return ck, nil
}

// stashPending appends the ride-ahead stash to dst for snapshotting, keying
// senders by their index in the child level.
func (n *tierNode) stashPending(dst []float64) []float64 {
	return encodePending(dst, n.pending, len(n.tier.XPlus), func(from string) (int, bool) {
		lvl, idx, ok := n.ts.tree.Lookup(from)
		return idx, ok && lvl == n.lvl+1
	})
}

func (n *tierNode) unstashPending(flat []float64) error {
	ids := make([]string, n.ts.tree.Width(n.lvl+1))
	for c := range ids {
		ids[c] = n.ts.tree.ID(n.lvl+1, c)
	}
	msgs, err := decodePending(flat, len(n.tier.XPlus), KindTierReport, ids)
	if err != nil {
		return err
	}
	n.pending = msgs
	return nil
}

// encodeLosses appends the loss cache to dst as [child, loss] pairs in child
// order for snapshotting. Children are indices into the next level, so
// walking that range visits the cache's keys in order without collecting
// and sorting them.
func (n *tierNode) encodeLosses(dst []float64) []float64 {
	for c := 0; c < n.ts.tree.Width(n.lvl+1); c++ {
		if loss, ok := n.losses[c]; ok {
			dst = append(dst, float64(c), loss)
		}
	}
	return dst
}

func (n *tierNode) decodeLosses(flat []float64) error {
	if len(flat)%2 != 0 {
		return fmt.Errorf("loss cache holds %d values, not pairs", len(flat))
	}
	clear(n.losses)
	for off := 0; off < len(flat); off += 2 {
		n.losses[int(flat[off])] = flat[off+1]
	}
	return nil
}

// redistribute queues the round-k update for the children (lines 14–15,
// and 20–23 after a parent round). Stragglers that missed the aggregation
// resynchronize from it, mirroring how non-participants rejoin in the
// simulation. resend marks a resume's repeat of the snapshotted round:
// membership transitions are then re-announced but not re-counted.
//
// The update goes to the round's hand-off cohort (topology.Tree.Handoff),
// as in the simulation, which records the same facts (core.RecordHandoff):
// its newcomers — planned joiners and reassigned-in workers — get it as an
// ADMIT carrying their starting state, its retirees, whose final report was
// just aggregated, a RETIRE, and the root announces re-tierings.
func (n *tierNode) redistribute(k int, resend bool) {
	t := k * n.tau()
	h := n.ts.tree.Handoff(n.lvl, n.idx, k)
	if !resend {
		core.RecordHandoff(&n.ts.ledger, n.ts.tree, n.lvl, t, h)
	}
	childID := func(c int) string { return n.ts.tree.ID(n.lvl+1, c) }
	update := transport.Message{Kind: KindTierUpdate, Round: t, Vectors: n.out.Vectors}
	for _, c := range h.Cohort {
		msg := update
		if h.Joined(c) {
			msg.Kind = KindAdmit
		}
		n.box.send(childID(c), msg)
	}
	for _, c := range h.Retires {
		n.box.send(childID(c), transport.Message{Kind: KindRetire, Round: t})
	}
	if n.lvl > 0 {
		return
	}
	// A re-tiering that takes effect at the next leaf-parent round follows
	// as a REASSIGN carrying the moves. Leaf-parents cross-check it against
	// their own schedule, so it can never *cause* a reassignment — only
	// surface a configuration divergence.
	lp := n.ts.leafParent()
	moves, ok := n.ts.moves(t/n.ts.tau(lp) + 1)
	if !ok {
		return
	}
	reassign := transport.Message{Kind: KindReassign, Round: t, Vectors: [][]float64{moves}}
	for p := 0; p < n.ts.tree.Width(lp); p++ {
		n.box.send(n.ts.tree.ID(lp, p), reassign)
	}
}

// checkReassign cross-checks a REASSIGN announcement against the locally
// computed schedule. Reassignment is never *decided* by messages — every
// node derives the same schedule — so any disagreement means the nodes were
// started with different churn configurations.
func (n *tierNode) checkReassign(msg transport.Message) error {
	if !n.churning() {
		return fmt.Errorf("cluster: %s got a reassign from %q without dynamic membership", n.id(), msg.From)
	}
	if len(msg.Vectors) != 1 {
		return fmt.Errorf("cluster: %s: malformed reassign payload from %q", n.id(), msg.From)
	}
	k := msg.Round / n.tau()
	if moves, _ := n.ts.moves(k + 1); !slices.Equal(msg.Vectors[0], moves) {
		return fmt.Errorf("cluster: %s: the reassign from %q at round %d disagrees with the local schedule: membership schedule divergence",
			n.id(), msg.From, k+1)
	}
	return nil
}

// start begins the node after the snapshot of round resumed (0: a fresh
// start). That snapshot was taken before the round's redistribution, which
// a crash can have cut short, so a resumed node re-sends the update first:
// children already past it discard it as stale, children still waiting on
// it adopt it (directly or via the mid-collect fast-forward). A restored
// curve keeps only the run's curve-recording instants: a snapshot written
// when the root scored every sync holds points off the EvalEvery period.
func (n *tierNode) start(now time.Time, resumed int) error {
	if resumed > 0 {
		if want := n.ts.tree.Epoch(n.lvl, resumed); n.epoch != want {
			return fmt.Errorf("cluster: %s resume at round %d: snapshot epoch %d, schedule says %d: membership schedule divergence",
				n.id(), resumed, n.epoch, want)
		}
		if n.res != nil {
			n.res.Curve = slices.DeleteFunc(n.res.Curve, func(p fl.Point) bool { return !n.hn.ShouldEval(p.Iter) })
		}
		n.redistribute(resumed, true)
	}
	n.k = resumed
	n.next(now)
	return nil
}

func (n *tierNode) deliver(now time.Time, msg transport.Message) error {
	switch n.phase {
	case tierCollect:
		return n.wrap(n.collect(now, msg))
	case tierSync:
		defer msg.Release()
		return n.wrap(n.syncReply(now, msg))
	}
	msg.Release()
	return fmt.Errorf("cluster: %s got %q from %q between rounds", n.id(), msg.Kind, msg.From)
}

func (n *tierNode) expire(now time.Time) error {
	switch {
	case n.phase == tierBegin:
		return n.wrap(n.begin(now))
	case n.phase == tierCollect:
		return n.wrap(n.progress(now))
	case n.deadline.IsZero():
		n.deadline = now.Add(n.opts.RecvTimeout)
	}
	if now.Before(n.deadline) {
		n.box.wake = n.deadline
		return nil
	}
	if !n.opts.tolerant() {
		return n.wrap(fmt.Errorf("parent update: %w", transport.ErrTimeout))
	}
	// Ride it out: keep local state for this sync; the parent substitutes
	// this node's last report and the next sync reconverges both sides.
	n.ts.ledger.Timeout(n.id(), n.lvl)
	n.settle(now)
	return nil
}

// interrupt saves nothing: a node's snapshots are its settled rounds.
func (n *tierNode) interrupt() {}

func (n *tierNode) wrap(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("cluster: %s round %d: %w", n.id(), n.k, err)
}

// next moves past settled round k: round k+1 begins at the next expire, and
// after the last round the node is done.
func (n *tierNode) next(now time.Time) {
	n.phase, n.box.wake, n.box.done = tierBegin, now, n.k >= n.rounds()
}

// finish evaluates the final model into the root's Result once the node is
// done and its last snapshot and redistribution are out; nil elsewhere.
func (n *tierNode) finish() (*fl.Result, error) {
	if n.res == nil || !n.box.done {
		return nil, nil
	}
	acc, err := model.Accuracy(n.cfg.Model, n.tier.XPlus, n.cfg.Test)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s final eval: %w", n.id(), err)
	}
	n.hn.AppendPoint(n.res, n.cfg.T, acc, n.weightedLoss)
	return n.res, nil
}

// begin opens round k+1's collect: its cohort, quorum and deadline, and the
// reports stashed by earlier rounds. A silent cohort may be riding out a
// lost update for up to a full RecvTimeout of its own, so a tolerant node
// waits one straggler grace beyond that horizon, not to miss their recovery
// reports by a hair. The root first scores round k's curve point.
func (n *tierNode) begin(now time.Time) error {
	if err := n.score(); err != nil {
		return err
	}
	n.k++
	n.kids, _ = n.ts.tree.Children(n.lvl, n.idx, n.k)
	n.phase, n.quorum, n.got = tierCollect, len(n.kids), 0
	n.deadline = now.Add(n.opts.RecvTimeout)
	if n.opts.tolerant() {
		n.quorum = quorumCount(n.opts.MinQuorum, len(n.kids))
		n.deadline = n.deadline.Add(n.opts.StragglerDeadline)
	}
	// Slots left filled by a round that ended early (a fast-forward, an
	// error) go back to the network first.
	releaseReports(n.reports)
	keep := n.pending[:0]
	for _, msg := range n.pending {
		switch {
		case msg.Round > n.want():
			keep = append(keep, msg)
		case msg.Round < n.want():
			n.ts.ledger.StaleMessage(n.id(), n.lvl)
			msg.Release()
		default:
			switch ok, err := n.admit(msg); {
			case err != nil:
				return err
			case ok:
				n.count(now)
			default:
				msg.Release()
			}
		}
	}
	n.pending = keep
	return n.progress(now)
}

// score appends round k's curve point on the root when k·τ is a
// curve-recording instant of the run (fl.Harness.ShouldEval, the
// simulation's rule; the final point is finish's). It runs when round k+1
// begins, after the driver has flushed round k's snapshot and update, so
// the tree trains while the root evaluates: snapshot k ends at the previous
// point, and a resume at k scores point k here unless the restored curve
// already ends at k·τ.
func (n *tierNode) score() error {
	t := n.want()
	if n.res == nil || n.k == 0 || !n.hn.ShouldEval(t) {
		return nil
	}
	if c := n.res.Curve; len(c) > 0 && c[len(c)-1].Iter == t {
		return nil
	}
	acc, err := model.Accuracy(n.cfg.Model, n.tier.XPlus, n.hn.EvalSet())
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	n.hn.AppendPoint(n.res, t, acc, n.weightedLoss)
	return nil
}

// count counts one more distinct reporter. Quorum mode grants stragglers a
// grace period measured from the moment the quorum-th report arrives:
// anchored there rather than at the collect's start, the window cannot be
// consumed by upstream tiers' own waits.
func (n *tierNode) count(now time.Time) {
	if n.got++; n.got == n.quorum {
		n.deadline = now.Add(n.grace())
	}
}

// grace is the straggler window. Above the leaf parent each child round
// between this node's syncs can burn a full straggler grace one tier down
// before the child reports, so the window budgets one grace period per
// intervening child round on top of this node's own.
func (n *tierNode) grace() time.Duration {
	if n.leafParent() {
		return n.opts.StragglerDeadline
	}
	return n.opts.StragglerDeadline * time.Duration(n.tau()/n.ts.tau(n.lvl+1)+1)
}

// progress closes round k's collect once the full cohort has reported
// (strict mode, MinQuorum == 1, needs it by the deadline) or, at quorum,
// once the grace has passed; below quorum the deadline fails it. Under
// dynamic membership the denominator is the round's live cohort.
func (n *tierNode) progress(now time.Time) error {
	switch {
	case n.got >= len(n.kids) || n.got >= n.quorum && !now.Before(n.deadline):
		return n.close(now) // stragglers forfeited this round
	case now.Before(n.deadline):
		n.box.wake = n.deadline
		return nil
	}
	return fmt.Errorf("%d/%d reports (quorum %d): %w", n.got, len(n.kids), n.quorum, transport.ErrTimeout)
}

// collect handles one message of round k's collect. Reports are slotted by
// the sender's position in the cohort, so arrival order never reaches the
// floating-point results; duplicates and stale rounds are rejected (and
// counted). A report for a future round — a child that rode out a lost
// update and ran ahead — is vetted against that round's cohort and stashed
// for it in quorum mode, a second copy counted a duplicate at once, and is a
// protocol error in strict mode (strict children never ride out); a round
// past the run's last or off the node's period is malformed. In
// quorum mode a parent update for this round or later means the parent
// completed a sync without this node: it is adopted on the spot and the
// node fast-forwards instead of timing out on a round the protocol moved
// past.
func (n *tierNode) collect(now time.Time, msg transport.Message) error {
	// A message whose buffer this node does not keep — everything but a
	// slotted or stashed report — goes back to the network once handled.
	keep := false
	var err error
	switch {
	case msg.Kind == KindReassign:
		err = n.checkReassign(msg)
	case msg.Kind == KindTierUpdate:
		if n.lvl > 0 && n.opts.tolerant() && msg.Round >= n.want() && len(msg.Vectors) == 2 {
			if err = n.tier.Adopt(msg.Vectors[0], msg.Vectors[1]); err != nil {
				err = fmt.Errorf("cluster: update from %q: %w", msg.From, err)
			} else {
				n.fastForward(now, msg.Round)
			}
			msg.Release()
			return err
		}
		// A parent update from a sync this node already gave up on.
		n.ts.ledger.StaleMessage(n.id(), n.lvl)
	case msg.Kind != KindTierReport:
		err = expectKind(msg, KindTierReport)
	case msg.Round < n.want():
		n.ts.ledger.StaleMessage(n.id(), n.lvl)
	case !n.opts.tolerant() && msg.Round > n.want():
		err = fmt.Errorf("cluster: report from %q for future round %d (want %d)", msg.From, msg.Round, n.want())
	case msg.Round > n.cfg.T || msg.Round%n.tau() != 0:
		err = fmt.Errorf("cluster: report from %q for round %d, not a round of %s (every %d iterations through %d): %w",
			msg.From, msg.Round, n.id(), n.tau(), n.cfg.T, ErrMalformedReport)
	case msg.Round > n.want():
		// Vetted now, against the cohort of its own round, so the stash
		// and every snapshot of it hold only reports that round may take,
		// one per sender.
		kids, _ := n.ts.tree.Children(n.lvl, n.idx, msg.Round/n.tau())
		if _, _, keep, err = n.vet(msg, kids); keep && n.stashed(msg) {
			n.ts.ledger.DuplicateReport(n.id(), n.lvl)
			keep = false
		} else if keep {
			n.pending = append(n.pending, msg)
		}
	default:
		if keep, err = n.admit(msg); keep {
			n.count(now)
		}
	}
	if !keep {
		msg.Release()
	}
	if err != nil {
		return err
	}
	return n.progress(now)
}

// stashed reports whether the ride-ahead stash holds a report from msg's
// sender for msg's round.
func (n *tierNode) stashed(msg transport.Message) bool {
	return slices.ContainsFunc(n.pending, func(p transport.Message) bool {
		return p.From == msg.From && p.Round == msg.Round
	})
}

// close ends round k's collect and aggregates it. What a partial round
// means depends on the level. At the leaf-parent the stragglers are
// forfeited: the tier aggregates the slots of the children that reported.
// At every other level a missing child's last report is substituted.
// A boundary round then reports to the parent; any other settles.
func (n *tierNode) close(now time.Time) error {
	idx := n.everyone
	if n.leafParent() {
		idx = n.reporters[:0]
		for pos := range n.kids {
			if n.reports[pos].Vectors != nil {
				idx = append(idx, pos)
			}
		}
	} else if err := n.substitute(); err != nil {
		return err
	}
	if missing := len(n.kids) - n.got; missing > 0 {
		n.ts.ledger.QuorumMiss(n.ts.tree.Levels[n.lvl].Name, n.lvl, n.want(), missing)
	}
	if err := n.update(idx); err != nil {
		return err
	}
	if n.lvl > 0 && n.k%n.ts.syncsPerParent(n.lvl) == 0 {
		// Report [y_ℓ−, x_ℓ+] and the level's weighted loss to the parent,
		// then await its update (lines 17–23, child side).
		report := n.out
		report.Kind, report.Round, report.Scalars[ScalarLoss] = KindTierReport, n.want(), n.weightedLoss
		n.box.send(n.ts.tree.ID(n.lvl-1, n.ts.tree.Parent[n.lvl][n.idx]), report)
		n.phase, n.deadline, n.box.wake = tierSync, time.Time{}, now
		return nil
	}
	n.settle(now)
	return nil
}

// substitute copies round k's fresh reports into the standing lastYRep /
// lastXRep buffers — copies, not rebinds: the checkpoint registry captures
// them by reference — and fails the run once a missing child's previous
// state would be substituted for a second consecutive round.
func (n *tierNode) substitute() error {
	for pos, c := range n.kids {
		if msg := n.reports[pos]; msg.Vectors != nil {
			if err := n.lastYRep[pos].CopyFrom(msg.Vectors[0]); err != nil {
				return err
			}
			if err := n.lastXRep[pos].CopyFrom(msg.Vectors[1]); err != nil {
				return err
			}
			msg.Release()
			n.reports[pos] = transport.Message{}
			n.missStreak[pos] = 0
			continue
		}
		if n.missStreak[pos]++; n.missStreak[pos] > 1 {
			return fmt.Errorf("cluster: child %s missed %d consecutive rounds of %s: quorum unreachable: %w",
				n.ts.tree.ID(n.lvl+1, c), n.missStreak[pos], n.id(), transport.ErrTimeout)
		}
	}
	return nil
}

// syncReply handles one message while the node awaits its parent's round-k
// update, and adopts the update. One for a later sync means the parent moved
// on without this node (a lost update or report left it a sync behind): the
// node fast-forwards to it.
func (n *tierNode) syncReply(now time.Time, msg transport.Message) error {
	switch msg.Kind {
	case KindTierReport:
		// Straggler reports from the round this node already closed can
		// still trickle in while it waits on its parent.
		n.ts.ledger.StaleMessage(n.id(), n.lvl)
		return nil
	case KindReassign:
		// A REASSIGN from an earlier sync can arrive out of order on a
		// delaying transport; it is validation-only, so handle it here too.
		return n.checkReassign(msg)
	}
	if err := expectKind(msg, KindTierUpdate); err != nil {
		return err
	}
	if msg.Round < n.want() {
		n.ts.ledger.StaleMessage(n.id(), n.lvl)
		return nil
	}
	if len(msg.Vectors) != 2 {
		return fmt.Errorf("cluster: update from %q carries %d vectors, want 2", msg.From, len(msg.Vectors))
	}
	if err := n.tier.Adopt(msg.Vectors[0], msg.Vectors[1]); err != nil {
		return fmt.Errorf("cluster: update from %q: %w", msg.From, err)
	}
	if msg.Round/n.tau() > n.k {
		n.fastForward(now, msg.Round)
	} else {
		n.settle(now)
	}
	return nil
}

// fastForward rejoins the parent's cadence at the adopted round, which
// supersedes the rounds in between: the node skips them instead of trailing
// — and having every report rejected as stale — forever.
func (n *tierNode) fastForward(now time.Time, adopted int) {
	n.ts.ledger.FastForward(n.id(), n.lvl, n.want(), adopted)
	n.k = adopted / n.tau()
	n.settle(now)
}

// settle ends round k: the node snapshots the settled state BEFORE it
// redistributes it, so a resumed node re-sends the snapshotted round's
// update and children can never be stranded waiting for an update that
// died with this process.
func (n *tierNode) settle(now time.Time) {
	n.epoch = n.ts.tree.Epoch(n.lvl, n.k)
	n.box.save(n.k)
	n.redistribute(n.k, false)
	n.next(now)
}

// admit validates one current-round report and slots it into n.reports;
// shared by live receives and the ride-ahead stash. It returns whether the
// report counted as a new distinct reporter.
func (n *tierNode) admit(msg transport.Message) (bool, error) {
	from, pos, ok, err := n.vet(msg, n.kids)
	if !ok {
		return false, err
	}
	if n.reports[pos].Vectors != nil {
		// A duplicate must not overwrite the slot twice while inflating the
		// reporter count: reject it and keep counting distinct reporters only.
		n.ts.ledger.DuplicateReport(n.id(), n.lvl)
		return false, nil
	}
	n.reports[pos] = msg
	n.losses[from] = msg.Scalars[ScalarLoss]
	return true, nil
}

// vet applies the report rules against kids, the cohort of the report's
// round: the sender must be one of them, and the report must carry [y, x]
// at the model's dimension and, where the level adapts, an eq. (6) term in
// [-1, 1]. It returns the sender's index in its level and its position in
// kids, and ok false for a report to drop: under dynamic membership a
// sender outside the cohort is counted stale, not refused.
func (n *tierNode) vet(msg transport.Message, kids []int) (from, pos int, ok bool, err error) {
	lvl, from, ok := n.ts.tree.Lookup(msg.From)
	if !ok || lvl != n.lvl+1 {
		return 0, 0, false, fmt.Errorf("cluster: %s got a report from %q, not a level-%d node", n.id(), msg.From, n.lvl+1)
	}
	pos, ok = position(kids, from)
	if !ok {
		if n.churning() {
			// A worker not in the round's cohort (e.g. a just-reassigned
			// worker's report that crossed the boundary) has nothing to
			// contribute to it.
			n.ts.ledger.StaleMessage(n.id(), n.lvl)
			return 0, 0, false, nil
		}
		return 0, 0, false, fmt.Errorf("cluster: %s got a report from %q, another node's child", n.id(), msg.From)
	}
	if len(msg.Vectors) != reportVectors {
		return 0, 0, false, fmt.Errorf("cluster: report from %q carries %d vectors, want %d: %w",
			msg.From, len(msg.Vectors), reportVectors, ErrMalformedReport)
	}
	for _, v := range msg.Vectors {
		if len(v) != len(n.tier.XPlus) {
			return 0, 0, false, fmt.Errorf("cluster: report from %q carries a %d-value vector, want %d: %w",
				msg.From, len(v), len(n.tier.XPlus), ErrMalformedReport)
		}
	}
	if n.tier.Level().Adapt {
		// An honest leaf's term is a clamped cosine (tensor.CosineFromDot
		// maps degenerate reductions to 0), so anything else was crafted.
		c, ok := msg.Scalars[ScalarCos]
		if !ok {
			return 0, 0, false, fmt.Errorf("cluster: report from %q carries no eq. (6) term: %w", msg.From, ErrMalformedReport)
		}
		if !(c >= -1 && c <= 1) {
			return 0, 0, false, fmt.Errorf("cluster: report from %q carries eq. (6) term %v outside [-1, 1]: %w",
				msg.From, c, ErrMalformedReport)
		}
	}
	return from, pos, true, nil
}

// update runs the level's aggregation for round k through the kernel
// (core.Tier.Update: lines 10–13 at momentum levels, the plain average of
// lines 18–19 otherwise) over the children at cohort positions idx — the
// leaf-parent's reporters, everyone elsewhere — and publishes what it
// decided (core.Rule.Publish, then its tier_aggregate event and its robust
// verdicts). What stays here is runtime: pointing the tier at the round's
// reports and γℓ migration across a cohort change.
func (n *tierNode) update(idx []int) error {
	sink := n.cfg.Telemetry
	started := core.Stopwatch(sink)
	k, t := n.k, n.want()
	kids, full := n.ts.tree.Children(n.lvl, n.idx, k)
	if n.leafParent() {
		for j, i := range idx {
			msg := n.reports[i]
			n.tier.Y[j], n.tier.X[j], n.tier.Cos[j] = msg.Vectors[0], msg.Vectors[1], msg.Scalars[ScalarCos]
		}
	}
	// γℓ migration: on the first aggregation after this node's cohort changed
	// (join, leave, or re-tiering), the momentum factor carried from the old
	// cohort is migrated per the configured policy. Zeroing — the default —
	// mirrors the paper's obtuse-angle reset: with γℓ = 0 line 13 collapses
	// to the plain average, refreshing the momentum base.
	carry, migrated := 1.0, false
	if n.leafParent() {
		carry, migrated = n.ts.tree.Carry(n.idx, k)
	}
	out, err := n.tier.Update(full, idx, carry)
	// The tier's report slots aliased the leaf reports until here; their
	// buffers go back to the network's list before the update goes out, so
	// the update's deliveries and the next reports reuse them while they are
	// still warm in cache.
	releaseReports(n.reports)
	if err != nil {
		return fmt.Errorf("cluster: %s aggregation at round %d: %w", n.id(), k, err)
	}
	n.ts.rule.Publish(&n.ts.ledger, n.ts.tree, n.lvl, n.idx, t, n.tier, out, migrated, started)
	if sink.Tracing() {
		fields := []telemetry.Field{
			telemetry.Int("t", t),
			telemetry.Int("tier", n.lvl),
			telemetry.String("level", n.ts.tree.Levels[n.lvl].Name),
			telemetry.String("node", n.id()),
			telemetry.Int("participants", len(idx)),
			telemetry.Float("gamma", out.Applied),
		}
		if n.tier.Level().Adapt {
			fields = append(fields, telemetry.Float("cos", out.Cos))
		}
		sink.Emit("tier_aggregate", fields...)
	}
	out.RecordVerdicts(&n.ts.ledger, n.ts.tree, n.lvl, n.idx, t, kids, idx)
	// The weighted loss over the full child weights: stragglers contribute
	// their most recently reported value.
	n.weightedLoss = 0
	for pos, c := range kids {
		n.weightedLoss += full[pos] * n.losses[c]
	}
	return nil
}

// releaseReports hands every collected report's buffer back to the network
// and empties the slots.
func releaseReports(reports []transport.Message) {
	for i := range reports {
		reports[i].Release()
		reports[i] = transport.Message{}
	}
}
