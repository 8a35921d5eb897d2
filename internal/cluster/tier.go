package cluster

import (
	"errors"
	"fmt"
	"time"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/core"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
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
	ep   transport.Endpoint
	opts Options
	rec  *faultRecorder
	reg  *checkpoint.Registry

	// tier is the node's Algorithm 1 state and update arithmetic (see
	// internal/core); everything else here decides which reports reach it.
	tier *core.Tier
	// lastY is the state most recently redistributed to the children, the
	// velocity-signal reference.
	lastY tensor.Vector
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
	// the largest cohort. A slotted report keeps its link's buffer until the
	// aggregation has consumed it.
	reports   []transport.Message
	reporters []int
	// out is the payload of every outgoing update and parent report, built
	// once: Vectors is [y_ℓ−, x_ℓ+] (the tier never rebinds them), Scalars
	// the loss slot a parent report fills in. Send is synchronous, so
	// nothing of a sent message outlives the call.
	out transport.Message
}

func newTierNode(cfg *fl.Config, hn *fl.Harness, ts *treeSpec, lvl, idx int, x0 tensor.Vector, ep transport.Endpoint, opts Options) *tierNode {
	// The tier is sized for the node's largest cohort across membership
	// epochs.
	fan := 0
	for _, shape := range ts.epochs {
		fan = max(fan, len(shape.kids[lvl][idx]))
	}
	n := &tierNode{
		cfg:  cfg,
		hn:   hn,
		ts:   ts,
		lvl:  lvl,
		idx:  idx,
		ep:   ep,
		opts: opts,
		tier: core.NewTier(core.Level{
			Momentum: ts.momentum[lvl],
			Adapt:    ts.adapt[lvl],
			Gamma:    ts.gamma[lvl],
			Signal:   opts.Signal,
			Ceiling:  opts.Ceiling,
			Tau:      ts.tau(lvl),
			X0:       x0,
			Agg:      newAggregator(ts.agg[lvl]),
		}, fan, heapVectors(len(x0))),
		lastY:  x0.Clone(),
		losses: make(map[int]float64),

		reports:   make([]transport.Message, fan),
		reporters: make([]int, 0, fan),
	}
	n.out = transport.Message{
		Vectors: [][]float64{n.tier.YMinus, n.tier.XPlus},
		Scalars: make(map[string]float64, 1),
	}
	if !n.leafParent() {
		n.lastYRep = make([]tensor.Vector, fan)
		n.lastXRep = make([]tensor.Vector, fan)
		n.missStreak = make([]int, fan)
		n.everyone = make([]int, fan)
		for c := 0; c < fan; c++ {
			n.lastYRep[c] = x0.Clone()
			n.lastXRep[c] = x0.Clone()
			n.tier.Y[c], n.tier.X[c] = n.lastYRep[c], n.lastXRep[c]
			n.everyone[c] = c
		}
	}
	return n
}

// heapVectors is the vector source of cluster nodes: each node owns plain
// heap vectors of the model dimension.
func heapVectors(dim int) func() tensor.Vector {
	return func() tensor.Vector { return tensor.NewVector(dim) }
}

func (n *tierNode) id() string       { return n.ts.ids[n.lvl][n.idx] }
func (n *tierNode) leafParent() bool { return n.lvl == n.ts.leafParent() }
func (n *tierNode) tau() int         { return n.ts.tau(n.lvl) }

// churning reports whether this node's cohort can change between rounds:
// dynamic membership acts at the leaf-parent level only.
func (n *tierNode) churning() bool { return n.ts.sched != nil && n.leafParent() }

// nvPerReport is the vector count a child report carries: training leaves
// send their two accumulators alongside [y, x].
func (n *tierNode) nvPerReport() int {
	if n.leafParent() {
		return 4
	}
	return 2
}

// initCheckpoint binds the node's aggregation state — both momenta, the
// model, the velocity-signal reference, the per-child loss cache, the
// substitution ledgers, the ride-ahead stash and, on the root, the accuracy
// curve — to its snapshot registry and applies the Resume option. It returns
// the aggregation round to continue after.
func (n *tierNode) initCheckpoint() (int, error) {
	reg, err := nodeRegistry(n.cfg, n.opts, n.ts, n.id())
	if err != nil || reg == nil {
		return 0, err
	}
	reg.Vector("yMinus", n.tier.YMinus)
	reg.Vector("yPlus", n.tier.YPlus)
	reg.Vector("xPlus", n.tier.XPlus)
	reg.Vector("lastY", n.lastY)
	reg.Dynamic("losses", n.encodeLosses, n.decodeLosses)
	for c := range n.lastYRep {
		reg.Vector(fmt.Sprintf("lastY/%d", c), n.lastYRep[c])
		reg.Vector(fmt.Sprintf("lastX/%d", c), n.lastXRep[c])
		reg.Int(fmt.Sprintf("missStreak/%d", c), &n.missStreak[c])
	}
	if n.ts.sched != nil {
		reg.Int("membEpoch", &n.epoch)
	}
	if n.res != nil {
		res := n.res
		reg.Float("weightedLoss", &n.weightedLoss)
		reg.Dynamic("curve",
			func(flat []float64) []float64 {
				for _, pt := range res.Curve {
					flat = append(flat, float64(pt.Iter), pt.TestAcc, pt.TrainLoss)
				}
				return flat
			},
			func(flat []float64) error {
				if len(flat)%3 != 0 {
					return fmt.Errorf("curve holds %d values, not triples", len(flat))
				}
				curve := make([]fl.Point, 0, len(flat)/3)
				for i := 0; i+2 < len(flat); i += 3 {
					iter := int(flat[i])
					if float64(iter) != flat[i] {
						return fmt.Errorf("curve iteration %v is not an integer", flat[i])
					}
					curve = append(curve, fl.Point{Iter: iter, TestAcc: flat[i+1], TrainLoss: flat[i+2]})
				}
				res.Curve = curve
				return nil
			})
	}
	reg.Dynamic("pending", n.stashPending, n.unstashPending)
	n.reg = reg
	return restoreOrClear(reg, n.opts.Resume, n.opts.Telemetry, n.id())
}

// stashPending appends the ride-ahead stash to dst for snapshotting, keying
// senders by their index in the child level.
func (n *tierNode) stashPending(dst []float64) []float64 {
	return encodePending(dst, n.pending, n.nvPerReport(), len(n.lastY), func(from string) (int, bool) {
		a, ok := n.ts.index[from]
		return a.idx, ok && a.lvl == n.lvl+1
	})
}

func (n *tierNode) unstashPending(flat []float64) error {
	msgs, err := decodePending(flat, n.nvPerReport(), len(n.lastY), KindTierReport, n.ts.ids[n.lvl+1])
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
	for c := range n.ts.ids[n.lvl+1] {
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

// redistribute sends the round-k update to the children (lines 14–15, and
// 20–23 after a parent round). Stragglers that missed the aggregation
// resynchronize from it, mirroring how non-participants rejoin in the
// simulation. resend marks a resume's repeat of the snapshotted round:
// membership transitions are then re-announced but not re-counted.
//
// The update goes to the round-k+1 cohort. Under dynamic membership its
// newcomers — planned joiners and reassigned-in workers — get it as an ADMIT
// carrying their starting state, planned leavers whose final report was
// just aggregated get a RETIRE, and the root follows a re-tiering sync with
// the REASSIGN announcement.
func (n *tierNode) redistribute(k int, resend bool) error {
	t := k * n.tau()
	update := transport.Message{Kind: KindTierUpdate, Round: t, Vectors: n.out.Vectors}
	next := min(k+1, n.cfg.T/n.tau())
	prev, _ := n.ts.children(n.lvl, n.idx, k)
	cohort, _ := n.ts.children(n.lvl, n.idx, next)
	childIDs := n.ts.ids[n.lvl+1]
	for _, c := range cohort {
		msg := update
		if _, member := position(prev, c); !member {
			msg.Kind = KindAdmit
			if !resend {
				n.rec.joined(childIDs[c], t, !refIn(n.ts.sched.JoinsAt(next), n.ts.ref(c)))
			}
		}
		if err := n.ep.Send(childIDs[c], msg); err != nil {
			return fmt.Errorf("cluster: %s redistribute to %s: %w", n.id(), childIDs[c], err)
		}
	}
	if n.churning() {
		retire := transport.Message{Kind: KindRetire, Round: t}
		for _, ref := range n.ts.sched.LeavesAfter(k) {
			if l, ok := n.ts.sched.EdgeOf(k, ref); !ok || l != n.idx {
				continue
			}
			leaver := childIDs[n.ts.leafOf(ref)]
			if !resend {
				n.rec.left(leaver, t)
			}
			if err := n.ep.Send(leaver, retire); err != nil {
				return fmt.Errorf("cluster: %s retire %s: %w", n.id(), leaver, err)
			}
		}
	}
	if n.lvl == 0 && n.ts.sched != nil {
		return n.announceRetier(k, resend)
	}
	return nil
}

// announceRetier broadcasts the REASSIGN control message to every
// leaf-parent after the root's sync-k redistribution when a re-tiering takes
// effect at the next leaf-parent round. The message carries the moved
// workers' (parent, index, newParent) triples; leaf-parents cross-check it
// against their own schedule, so it can never *cause* a reassignment — only
// surface a configuration divergence.
func (n *tierNode) announceRetier(k int, resend bool) error {
	sched, lp := n.ts.sched, n.ts.leafParent()
	r := k * n.tau() / n.ts.tau(lp)
	if r >= sched.K {
		return nil
	}
	if next := sched.EpochAt(r + 1); !next.Retier || next.Start != r+1 {
		return nil
	}
	moved := sched.ReassignedAt(r + 1)
	flat := make([]float64, 0, 3*len(moved))
	for _, ref := range moved {
		to, ok := sched.EdgeOf(r+1, ref)
		if !ok {
			return fmt.Errorf("cluster: %s: reassigned worker %s has no parent at round %d", n.id(), ref.NodeID(), r+1)
		}
		flat = append(flat, float64(ref.Edge), float64(ref.Index), float64(to))
	}
	msg := transport.Message{
		Kind:    KindReassign,
		Round:   k * n.tau(),
		Vectors: [][]float64{flat},
	}
	for _, to := range n.ts.ids[lp] {
		if err := n.ep.Send(to, msg); err != nil {
			return fmt.Errorf("cluster: %s reassign to %s: %w", n.id(), to, err)
		}
	}
	if !resend {
		n.rec.retier(k*n.tau(), len(moved))
	}
	return nil
}

// checkReassign cross-checks a REASSIGN announcement against the locally
// computed schedule. Reassignment is never *decided* by messages — every
// node derives the same schedule — so any disagreement means the nodes were
// started with different churn configurations.
func (n *tierNode) checkReassign(msg transport.Message) error {
	if !n.churning() {
		return fmt.Errorf("cluster: %s got reassign without dynamic membership", n.id())
	}
	if len(msg.Vectors) != 1 || len(msg.Vectors[0])%3 != 0 {
		return fmt.Errorf("cluster: %s: malformed reassign payload", n.id())
	}
	k := msg.Round / n.tau()
	flat := msg.Vectors[0]
	for off := 0; off < len(flat); off += 3 {
		ref := membership.Ref{Edge: int(flat[off]), Index: int(flat[off+1])}
		to := int(flat[off+2])
		if l, ok := n.ts.sched.EdgeOf(k+1, ref); !ok || l != to {
			return fmt.Errorf("cluster: %s: reassign of %s to parent %d at round %d disagrees with the local schedule: membership schedule divergence",
				n.id(), ref.NodeID(), to, k+1)
		}
	}
	return nil
}

// run executes the node until T. The root returns the run Result; every
// other level returns (nil, nil) on success.
func (n *tierNode) run() (*fl.Result, error) {
	tau := n.tau()
	numRounds := n.cfg.T / tau
	if n.lvl == 0 {
		name := "HierAdMo/cluster"
		if !n.ts.adapt[n.ts.leafParent()] {
			name = "HierAdMo-R/cluster"
		}
		n.res = n.hn.NewResult(name)
	}
	start, err := n.initCheckpoint()
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", n.id(), err)
	}
	if start > 0 {
		if want := n.ts.epochAt(n.lvl, start); n.epoch != want {
			return nil, fmt.Errorf("cluster: %s resume at round %d: snapshot epoch %d, schedule says %d: membership schedule divergence",
				n.id(), start, n.epoch, want)
		}
		// The snapshot was taken before the round's redistribution, so a crash
		// can land between the two. Re-send the snapshotted round's update:
		// children already past it discard the duplicate as stale, children
		// still waiting on it adopt it (directly or via the mid-collect
		// fast-forward) and catch up.
		if err := n.redistribute(start, true); err != nil {
			return nil, fmt.Errorf("cluster: %s resume: %w", n.id(), err)
		}
	}
	for k := start + 1; k <= numRounds; k++ {
		if interrupted(n.opts.Interrupt) {
			return nil, fmt.Errorf("cluster: %s: %w", n.id(), ErrInterrupted)
		}
		adopted, reports, idx, err := n.collect(k)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s round %d: %w", n.id(), k, err)
		}
		if adopted > 0 {
			// The parent completed round `adopted` while this node was still
			// collecting: the adopted state supersedes this round's local
			// aggregation, so skip it (and the sync the parent already closed)
			// and rejoin at the adopted round.
			n.rec.fastforward(n.id(), k*tau, adopted)
			k = adopted / tau
		} else {
			if err := n.update(reports, idx, k); err != nil {
				return nil, fmt.Errorf("cluster: %s round %d: %w", n.id(), k, err)
			}
			if n.lvl > 0 && k%n.ts.syncsPerParent(n.lvl) == 0 {
				adopted, err := n.parentSync(k)
				if err != nil {
					return nil, fmt.Errorf("cluster: %s round %d: %w", n.id(), k, err)
				}
				if r := adopted / tau; r > k {
					// The parent moved on without this node (a lost update or
					// report left it a sync behind); jump to the adopted round
					// so the node rejoins the parent's cadence instead of
					// trailing — and having every report rejected as stale —
					// forever.
					n.rec.fastforward(n.id(), k*tau, adopted)
					k = r
				}
			}
			if n.res != nil && k < numRounds && n.cfg.EvalEvery > 0 {
				acc, err := model.Accuracy(n.cfg.Model, n.tier.XPlus, n.hn.EvalSet())
				if err != nil {
					return nil, fmt.Errorf("cluster: %s eval round %d: %w", n.id(), k, err)
				}
				n.res.Curve = append(n.res.Curve, fl.Point{
					Iter:      k * tau,
					TestAcc:   acc,
					TrainLoss: n.weightedLoss,
				})
				n.recordEval(k*tau, acc, n.weightedLoss, false)
			}
		}
		// Settle the round's remaining state and snapshot it BEFORE the
		// redistribution: a resumed node then re-sends the snapshotted round's
		// update, so children can never be stranded waiting for an update that
		// died with this process. (lastY only feeds the next round's velocity
		// signal, so refreshing it ahead of the sends changes no message.)
		if err := n.lastY.CopyFrom(n.tier.YMinus); err != nil {
			return nil, err
		}
		n.epoch = n.ts.epochAt(n.lvl, k)
		if err := saveSnapshot(n.reg, k, n.opts.Telemetry, n.id()); err != nil {
			return nil, fmt.Errorf("cluster: %s round %d: %w", n.id(), k, err)
		}
		if err := n.redistribute(k, false); err != nil {
			return nil, err
		}
	}
	if n.res == nil {
		return nil, nil
	}
	acc, err := model.Accuracy(n.cfg.Model, n.tier.XPlus, n.cfg.Test)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s final eval: %w", n.id(), err)
	}
	n.res.FinalAcc = acc
	n.res.FinalLoss = n.weightedLoss
	n.res.Curve = append(n.res.Curve, fl.Point{Iter: n.cfg.T, TestAcc: acc, TrainLoss: n.weightedLoss})
	n.recordEval(n.cfg.T, acc, n.weightedLoss, true)
	return n.res, nil
}

// recordEval mirrors one root accuracy measurement onto the telemetry sink.
func (n *tierNode) recordEval(t int, acc, loss float64, final bool) {
	sink := n.opts.Telemetry
	m := sink.M()
	m.Evals.Inc()
	m.TestAccuracy.Set(acc)
	m.TrainLoss.Set(loss)
	if sink.Tracing() {
		sink.Emit("eval",
			telemetry.Int("t", t),
			telemetry.Float("acc", acc),
			telemetry.Float("loss", loss),
			telemetry.Bool("final", final))
	}
}

// collect gathers the round-k child reports, slotted by the sender's
// position in the round's cohort so aggregation order (and hence
// floating-point results) is deterministic regardless of arrival order.
//
// Strict mode (MinQuorum == 1) requires the full cohort within RecvTimeout.
// Quorum mode grants stragglers a grace period measured from the moment the
// quorum-th report arrives, then proceeds without them; below quorum it
// keeps waiting until RecvTimeout before failing. (Anchoring the grace at
// quorum attainment rather than collection start keeps the window from being
// consumed by upstream tiers' own waits.) Under dynamic membership the
// denominator is the round's live cohort. Duplicate reports and stale rounds
// are rejected (and counted) in both modes. A report for a future round — a
// child that rode out a lost update and ran ahead — is stashed for the round
// it belongs to in quorum mode and is a protocol error in strict mode
// (strict children never ride out).
//
// What a partial round means depends on the level. At the leaf-parent the
// stragglers are forfeited: the results are the report slots and the sorted
// positions of the children that reported. At every other level fresh
// reports land in the standing lastYRep/lastXRep buffers and a missing
// child's previous state is substituted for at most one consecutive round
// before the run fails fast.
//
// In quorum mode a parent update for this round or later arriving
// mid-collect means the parent already completed a sync without this node;
// it is adopted on the spot and its round returned (first result) so the
// caller fast-forwards instead of timing out on a round the protocol moved
// past.
func (n *tierNode) collect(k int) (int, []transport.Message, []int, error) {
	kids, _ := n.ts.children(n.lvl, n.idx, k)
	want := k * n.tau()
	quorum := len(kids)
	if n.opts.tolerant() {
		quorum = quorumCount(n.opts.MinQuorum, len(kids))
	}
	// Slots left filled by a round that ended early (a fast-forward, an
	// error) go back to their links first.
	releaseReports(n.reports)
	reports := n.reports[:len(kids)]
	got := 0
	// Drain reports stashed by earlier rounds.
	if len(n.pending) > 0 {
		keep := n.pending[:0]
		for _, msg := range n.pending {
			switch {
			case msg.Round > want:
				keep = append(keep, msg)
			case msg.Round < want:
				n.rec.stale(n.id())
				msg.Release()
			default:
				ok, err := n.admit(msg, kids, reports)
				if err != nil {
					return 0, nil, nil, err
				}
				if ok {
					got++
				} else {
					msg.Release()
				}
			}
		}
		n.pending = keep
	}
	deadline := n.opts.now().Add(n.opts.RecvTimeout)
	if n.opts.tolerant() {
		// A silent cohort may be riding out a lost update for up to a full
		// RecvTimeout of its own; wait one straggler grace beyond that
		// horizon so their recovery reports are not missed by a hair.
		deadline = deadline.Add(n.opts.StragglerDeadline)
	}
	grace := n.opts.StragglerDeadline
	if !n.leafParent() {
		// Each child round between this node's syncs can burn a full
		// straggler grace one tier down before the child reports, so the
		// window budgets one grace period per intervening child round on top
		// of this node's own.
		grace *= time.Duration(n.tau()/n.ts.tau(n.lvl+1) + 1)
	}
	var stragglerBy time.Time
	for got < len(kids) {
		var wait time.Duration
		if got >= quorum {
			if stragglerBy.IsZero() {
				stragglerBy = n.opts.now().Add(grace)
			}
			wait = stragglerBy.Sub(n.opts.now())
			if wait <= 0 {
				break // quorum reached, stragglers forfeited this round
			}
		} else {
			wait = deadline.Sub(n.opts.now())
			if wait <= 0 {
				return 0, nil, nil, fmt.Errorf("%d/%d reports (quorum %d): %w",
					got, len(kids), quorum, transport.ErrTimeout)
			}
		}
		msg, err := recvInterruptible(n.ep, wait, n.opts)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue // the loop re-evaluates quorum and deadlines
			}
			return 0, nil, nil, err
		}
		// A message whose buffer this node does not keep — everything but a
		// slotted or stashed report — goes back to its link once handled.
		keep := false
		switch {
		case msg.Kind == KindReassign:
			err = n.checkReassign(msg)
		case msg.Kind == KindTierUpdate:
			if n.lvl > 0 && n.opts.tolerant() && msg.Round >= want && len(msg.Vectors) == 2 {
				// The parent completed this round's sync (or a later one)
				// without this node — its update supersedes anything the
				// current collect could aggregate.
				err = n.tier.Adopt(msg.Vectors[0], msg.Vectors[1])
				msg.Release()
				return msg.Round, nil, nil, err
			}
			// A parent update from a sync this node already gave up on.
			n.rec.stale(n.id())
		case msg.Kind != KindTierReport:
			err = expectKind(msg, KindTierReport)
		case msg.Round < want:
			n.rec.stale(n.id())
		case msg.Round > want:
			if n.opts.tolerant() {
				n.pending = append(n.pending, msg)
				keep = true
			} else {
				err = fmt.Errorf("cluster: report from %q for future round %d (want %d)",
					msg.From, msg.Round, want)
			}
		default:
			if keep, err = n.admit(msg, kids, reports); keep {
				got++
			}
		}
		if !keep {
			msg.Release()
		}
		if err != nil {
			return 0, nil, nil, err
		}
	}
	name := n.ts.levels[n.lvl].Name
	if n.leafParent() {
		idx := n.reporters[:0]
		for pos := range reports {
			if reports[pos].Vectors != nil {
				idx = append(idx, pos)
			}
		}
		n.rec.missingTier(name, n.lvl, want, len(kids)-got, true)
		return 0, reports, idx, nil
	}
	for pos := range reports {
		if msg := reports[pos]; msg.Vectors != nil {
			// Copy into the standing buffers instead of rebinding the slots:
			// the checkpoint registry captures them by reference, so the
			// backing arrays registered at startup must keep holding the live
			// state.
			if err := n.lastYRep[pos].CopyFrom(msg.Vectors[0]); err != nil {
				return 0, nil, nil, err
			}
			if err := n.lastXRep[pos].CopyFrom(msg.Vectors[1]); err != nil {
				return 0, nil, nil, err
			}
			msg.Release()
			reports[pos] = transport.Message{}
			n.missStreak[pos] = 0
			continue
		}
		n.missStreak[pos]++
		if n.missStreak[pos] > 1 {
			return 0, nil, nil, fmt.Errorf("cluster: child %s missed %d consecutive rounds of %s: quorum unreachable: %w",
				n.ts.ids[n.lvl+1][kids[pos]], n.missStreak[pos], n.id(), transport.ErrTimeout)
		}
	}
	n.rec.missingTier(name, n.lvl, want, len(kids)-got, false)
	return 0, nil, n.everyone, nil
}

// admit validates one current-round report and slots it into reports;
// shared by live receives and the ride-ahead stash. It returns whether the
// report counted as a new distinct reporter.
func (n *tierNode) admit(msg transport.Message, kids []int, reports []transport.Message) (bool, error) {
	from, ok := n.ts.index[msg.From]
	if !ok || from.lvl != n.lvl+1 {
		return false, fmt.Errorf("cluster: %s got a report from %q, not a level-%d node", n.id(), msg.From, n.lvl+1)
	}
	pos, ok := position(kids, from.idx)
	if !ok {
		if n.churning() {
			// A worker not in this round's cohort (e.g. a just-reassigned
			// worker's report that crossed the boundary) has nothing to
			// contribute here.
			n.rec.stale(n.id())
			return false, nil
		}
		return false, fmt.Errorf("cluster: %s got a report from %q, another node's child", n.id(), msg.From)
	}
	if len(msg.Vectors) != n.nvPerReport() {
		return false, fmt.Errorf("cluster: report from %q carries %d vectors, want %d",
			msg.From, len(msg.Vectors), n.nvPerReport())
	}
	if reports[pos].Vectors != nil {
		// A duplicate must not overwrite the slot twice while inflating the
		// reporter count: reject it and keep counting distinct reporters only.
		n.rec.duplicate(n.id())
		return false, nil
	}
	reports[pos] = msg
	n.losses[from.idx] = msg.Scalars[ScalarLoss]
	return true, nil
}

// update runs the level's aggregation for round k through the kernel
// (core.Tier.Update: lines 10–13 at momentum levels, the plain average of
// lines 18–19 otherwise) over the children at cohort positions idx — the
// leaf-parent's reporters, everyone elsewhere — and publishes what it
// decided. What stays here is runtime: pointing the tier at the round's
// reports, γℓ migration across a cohort change, and the fault/attack
// records, metrics and trace.
func (n *tierNode) update(reports []transport.Message, idx []int, k int) error {
	sink := n.opts.Telemetry
	var aggStart time.Time
	if sink != nil {
		aggStart = time.Now()
	}
	kids, full := n.ts.children(n.lvl, n.idx, k)
	t := k * n.tau()
	if n.leafParent() {
		for j, i := range idx {
			v := reports[i].Vectors
			n.tier.Y[j], n.tier.X[j], n.tier.GradSum[j], n.tier.YSum[j], n.tier.VelRef[j] = v[0], v[1], v[2], v[3], n.lastY
		}
	}
	// γℓ migration: on the first aggregation after this node's cohort changed
	// (join, leave, or re-tiering), the momentum factor carried from the old
	// cohort is migrated per the configured policy. Zeroing — the default —
	// mirrors the paper's obtuse-angle reset: with γℓ = 0 line 13 collapses
	// to the plain average, refreshing the momentum base.
	carry, migrated := 1.0, false
	if n.churning() {
		var frac float64
		if frac, migrated = n.ts.sched.Overlap(k, n.idx); migrated {
			switch n.ts.policy {
			case membership.MigrateZero:
				carry = 0
			case membership.MigrateRescale:
				carry = frac
			}
		}
	}
	out, err := n.tier.Update(full, idx, carry)
	// The tier's report slots aliased the leaf reports until here; their
	// buffers are free for the leaves' next reports before the update that
	// triggers those goes out.
	releaseReports(reports)
	if err != nil {
		return fmt.Errorf("cluster: %s aggregation at round %d: %w", n.id(), k, err)
	}
	adaptive := n.ts.adapt[n.lvl]
	if adaptive {
		if out.Gamma == 0 {
			sink.M().GammaZeroed.Inc()
		}
		sink.M().EdgeCosine.Set(out.Cos)
	}
	if migrated {
		n.rec.migrated(n.id(), t, n.ts.policy.String(), out.Applied)
	}
	if n.lvl == 0 {
		sink.M().CloudSyncs.Inc()
		sink.M().Round.Set(float64(t))
		if sched := n.ts.sched; sched != nil {
			r := t / n.ts.tau(n.ts.leafParent())
			sink.M().MembershipEpoch.Set(float64(sched.EpochIndex(r)))
			sink.M().LiveWorkers.Set(float64(sched.LiveCount(r)))
		}
	} else {
		sink.M().EdgeAggregations.Inc()
	}
	if n.leafParent() {
		sink.M().GammaEdge.Set(out.Applied)
	}
	if sink.Tracing() {
		fields := []telemetry.Field{
			telemetry.Int("t", t),
			telemetry.Int("tier", n.lvl),
			telemetry.String("level", n.ts.levels[n.lvl].Name),
			telemetry.String("node", n.id()),
			telemetry.Int("participants", len(idx)),
			telemetry.Float("gamma", out.Applied),
		}
		if adaptive {
			fields = append(fields, telemetry.Float("cos", out.Cos))
		}
		sink.Emit("tier_aggregate", fields...)
	}
	if st := out.Robust; len(st.Rejected) > 0 || len(st.Clipped) > 0 {
		// Map the aggregation's reporter slots back to node IDs.
		ids := make([]string, len(idx))
		for j, pos := range idx {
			ids[j] = n.ts.ids[n.lvl+1][kids[pos]]
		}
		n.rec.robustTier(n.id(), n.ts.levels[n.lvl].Name, n.lvl, t, st, ids)
	}
	// The weighted loss over the full child weights: stragglers contribute
	// their most recently reported value.
	n.weightedLoss = 0
	for pos, c := range kids {
		n.weightedLoss += full[pos] * n.losses[c]
	}
	if sink != nil {
		if n.lvl == 0 {
			sink.M().CloudSyncSeconds.Observe(time.Since(aggStart).Seconds())
		} else {
			sink.M().EdgeAggSeconds.Observe(time.Since(aggStart).Seconds())
		}
	}
	return nil
}

// parentSync reports [y_ℓ−, x_ℓ+] and the level's weighted loss to the
// parent at a boundary round, then adopts the parent's update (lines 17–23,
// child side). In quorum mode a lost update is ridden out — the node keeps
// its own state for this sync — or, if a later sync's update arrives
// meanwhile, adopted from there. It returns the round of the update actually
// adopted (0 on a ride-out) so the caller can fast-forward past syncs the
// parent already completed.
func (n *tierNode) parentSync(k int) (int, error) {
	want := k * n.tau()
	report := n.out
	report.Kind, report.Round, report.Scalars[ScalarLoss] = KindTierReport, want, n.weightedLoss
	parent := n.ts.ids[n.lvl-1][n.ts.parent[n.lvl][n.idx]]
	if err := n.ep.Send(parent, report); err != nil {
		return 0, err
	}
	deadline := n.opts.now().Add(n.opts.RecvTimeout)
	for {
		wait := deadline.Sub(n.opts.now())
		if wait <= 0 {
			if n.opts.tolerant() {
				// Ride it out: keep local state for this sync; the parent
				// substitutes this node's last report and the next sync
				// reconverges both sides.
				n.rec.timeout(n.id())
				return 0, nil
			}
			return 0, fmt.Errorf("parent update: %w", transport.ErrTimeout)
		}
		msg, err := recvInterruptible(n.ep, wait, n.opts)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			return 0, err
		}
		adopted, err := n.parentReply(msg, want)
		msg.Release()
		if adopted > 0 || err != nil {
			return adopted, err
		}
	}
}

// parentReply handles one message received while waiting for the parent's
// round-want update: it adopts the update (returning its round) and skips
// everything else.
func (n *tierNode) parentReply(msg transport.Message, want int) (int, error) {
	switch msg.Kind {
	case KindTierReport:
		// Straggler reports from the round this node already closed can
		// still trickle in while it waits on its parent.
		n.rec.stale(n.id())
		return 0, nil
	case KindReassign:
		// A REASSIGN from an earlier sync can arrive out of order on a
		// delaying transport; it is validation-only, so handle it here too.
		return 0, n.checkReassign(msg)
	}
	if err := expectKind(msg, KindTierUpdate); err != nil {
		return 0, err
	}
	if msg.Round < want {
		n.rec.stale(n.id())
		return 0, nil
	}
	if len(msg.Vectors) != 2 {
		return 0, fmt.Errorf("cluster: parent update carries %d vectors, want 2", len(msg.Vectors))
	}
	return msg.Round, n.tier.Adopt(msg.Vectors[0], msg.Vectors[1])
}

// releaseReports hands every collected report's buffer back to its link and
// empties the slots.
func releaseReports(reports []transport.Message) {
	for i := range reports {
		reports[i].Release()
		reports[i] = transport.Message{}
	}
}

// refIn reports whether ref appears in refs (cohorts are tiny, linear scan).
func refIn(refs []membership.Ref, ref membership.Ref) bool {
	for _, r := range refs {
		if r == ref {
			return true
		}
	}
	return false
}
