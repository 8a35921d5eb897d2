package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/tensor"
	"hieradmo/internal/transport"
)

// tierHarness feeds one tierNode its inputs the way drive does — after every
// call the outbox is emptied, here into a log — with no endpoint, no clock
// and no sleep: every time is an offset from an epoch the test picks.
type tierHarness struct {
	n   *tierNode
	x0  tensor.Vector
	t0  time.Time
	log []string
}

// newTierHarness builds node (lvl, idx) of the tree opts selects on cfg as a
// bare machine with a ledger of its own.
func newTierHarness(t testing.TB, cfg *fl.Config, lvl, idx int, opts Options) *tierHarness {
	t.Helper()
	opts, hn, ts, err := prepare(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := newTierNode(cfg, hn, ts, lvl, idx, hn.InitParams(), opts)
	return &tierHarness{n: n, x0: hn.InitParams(), t0: time.Unix(1e9, 0)}
}

// describe renders one effect: "save k", or "<to> <kind>@<round>".
func describe(e effect) string {
	if e.to == "" {
		return fmt.Sprintf("save %d", e.seq)
	}
	return fmt.Sprintf("%s %s@%d", e.to, e.msg.Kind, e.msg.Round)
}

func (h *tierHarness) flush(err error) error {
	for _, e := range h.n.box.effects {
		h.log = append(h.log, describe(e))
	}
	h.n.box.effects = h.n.box.effects[:0]
	return err
}

func (h *tierHarness) start() error { return h.flush(h.n.start(h.t0, 0)) }
func (h *tierHarness) expire(at time.Duration) error {
	return h.flush(h.n.expire(h.t0.Add(at)))
}
func (h *tierHarness) deliver(at time.Duration, msg transport.Message) error {
	return h.flush(h.n.deliver(h.t0.Add(at), msg))
}

// tally is what the node's ledger has counted.
func (h *tierHarness) tally() telemetry.Tally { return h.n.ts.ledger.Tally() }

// wake is the machine's wake time as an offset from the epoch.
func (h *tierHarness) wake() time.Duration { return h.n.box.wake.Sub(h.t0) }

// take returns the effects logged so far and clears the log.
func (h *tierHarness) take() []string {
	log := h.log
	h.log = nil
	return log
}

// report is a child's round report of [x0, x0] with loss 1 and, unless
// scalars are given, the eq. (6) term 0.5.
func (h *tierHarness) report(from string, round int, scalars ...map[string]float64) transport.Message {
	msg := transport.Message{From: from, Kind: KindTierReport, Round: round,
		Vectors: [][]float64{h.x0.Clone(), h.x0.Clone()},
		Scalars: map[string]float64{ScalarLoss: 1, ScalarCos: 0.5}}
	if len(scalars) > 0 {
		msg.Scalars = scalars[0]
	}
	return msg
}

// begin starts the machine and opens round 1's collect at the epoch.
func (h *tierHarness) begin(t *testing.T) {
	t.Helper()
	if err := h.start(); err != nil {
		t.Fatal(err)
	}
	if err := h.expire(0); err != nil {
		t.Fatal(err)
	}
	if h.n.phase != tierCollect || h.n.k != 1 {
		t.Fatalf("after start: phase %d round %d, want round 1's collect", h.n.phase, h.n.k)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func wantLog(t *testing.T, h *tierHarness, want ...string) {
	t.Helper()
	if got := h.take(); !slices.Equal(got, want) {
		t.Fatalf("outbox %q, want %q", got, want)
	}
}

func wantWake(t *testing.T, h *tierHarness, want time.Duration) {
	t.Helper()
	if got := h.wake(); got != want {
		t.Fatalf("wake at %v, want %v", got, want)
	}
}

// TestTierMachine drives an aggregating node's protocol with synthetic
// times and messages — no network and no sleep — at the leaf parent (edge-0
// of the 2×2 config's derived tree: τ = 2, a cloud sync every second round),
// at a middle tier (region-0 of a depth-4 tree over the same shards: τ = 4
// over edges of τ = 2, a root sync every second round) and at the root (the
// cloud of the derived tree: τ = 4, a curve point every EvalEvery = 8
// iterations). Hour-scale deadlines pass in no real time.
func TestTierMachine(t *testing.T) {
	cfg := buildConfig(t, 61, 0)
	middle := treeTopo(t, "cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker")
	tolerant := Options{Adaptive: true, MinQuorum: 0.5, RecvTimeout: time.Hour, StragglerDeadline: time.Minute}
	w0, w1 := WorkerID(0, 0), WorkerID(0, 1)
	// Under churn worker-0-1 joins edge-0 at round 3.
	join, err := membership.ParseSpec("join:" + w1 + "@3")
	if err != nil {
		t.Fatal(err)
	}
	joining := tolerant
	joining.Tree = scenario{churn: &join}.tree(t, cfg)
	const ms = time.Millisecond
	// syncRoot feeds the root both edges' reports for its round k.
	syncRoot := func(t *testing.T, h *tierHarness, k int) {
		t.Helper()
		must(t, h.deliver(0, h.report(EdgeID(0), 4*k)))
		must(t, h.deliver(0, h.report(EdgeID(1), 4*k)))
	}
	// wantCurve holds the root's curve to the iterations want.
	wantCurve := func(t *testing.T, h *tierHarness, want ...int) {
		t.Helper()
		var got []int
		for _, p := range h.n.res.Curve {
			got = append(got, p.Iter)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("curve at iterations %v, want %v", got, want)
		}
	}
	for _, row := range []struct {
		name   string
		middle bool // region-0 of the depth-4 tree, not edge-0
		root   bool // the cloud, not edge-0
		opts   Options
		run    func(t *testing.T, h *tierHarness)
	}{
		{name: "strict full cohort", opts: Options{Adaptive: true}, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			wantWake(t, h, DefaultRecvTimeout)
			must(t, h.deliver(1*ms, h.report(w1, 2)))
			wantLog(t, h)
			// The full cohort closes the round; the snapshot precedes the
			// redistribution, and the next round begins after the flush.
			must(t, h.deliver(2*ms, h.report(w0, 2)))
			wantLog(t, h, "save 1", w0+" tier-update@2", w1+" tier-update@2")
			wantWake(t, h, 2*ms)
			// Round 2 is a sync: the report goes up, and the wait for the
			// update starts once it is out.
			must(t, h.expire(3*ms))
			must(t, h.deliver(4*ms, h.report(w0, 4)))
			must(t, h.deliver(5*ms, h.report(w1, 4)))
			wantLog(t, h, CloudID+" tier-report@4")
			wantWake(t, h, 5*ms)
			must(t, h.expire(6*ms))
			wantWake(t, h, 6*ms+DefaultRecvTimeout)
			must(t, h.deliver(7*ms, transport.Message{From: CloudID, Kind: KindTierUpdate, Round: 4,
				Vectors: [][]float64{h.x0.Clone(), h.x0.Clone()}}))
			wantLog(t, h, "save 2", w0+" tier-update@4", w1+" tier-update@4")
			if tally := h.tally(); tally.Tiers != nil || tally.Missed != nil {
				t.Errorf("a fault-free round recorded %v", tally)
			}
		}},
		{name: "quorum then straggler forfeited after the grace", opts: tolerant, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			wantWake(t, h, time.Hour+time.Minute)
			// The grace is anchored at the moment quorum is reached, not at
			// the start of the collect.
			must(t, h.deliver(10*time.Second, h.report(w0, 2)))
			wantWake(t, h, 10*time.Second+time.Minute)
			must(t, h.expire(10*time.Second+time.Minute-1))
			wantLog(t, h)
			must(t, h.expire(10*time.Second+time.Minute))
			wantLog(t, h, "save 1", w0+" tier-update@2", w1+" tier-update@2")
			if got := h.tally().Missed[telemetry.TierRound{Tier: 1, T: 2}]; got != 1 {
				t.Errorf("edge-0 missed %d reports at t=2, want 1", got)
			}
		}},
		{name: "below quorum until the deadline", opts: Options{MinQuorum: 0.5, RecvTimeout: time.Second, StragglerDeadline: 100 * ms},
			run: func(t *testing.T, h *tierHarness) {
				h.begin(t)
				// A tolerant collect waits one straggler grace past
				// RecvTimeout for children riding out a lost update.
				wantWake(t, h, 1100*ms)
				must(t, h.expire(1100*ms-1))
				err := h.expire(1100 * ms)
				if !errors.Is(err, transport.ErrTimeout) || !strings.Contains(err.Error(), "0/2 reports (quorum 1)") {
					t.Fatalf("below quorum at the deadline: %v, want a wrapped ErrTimeout counting 0/2", err)
				}
			}},
		{name: "future report stashed then admitted", opts: tolerant, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			must(t, h.deliver(1*ms, h.report(w1, 4)))
			if len(h.n.pending) != 1 || h.n.got != 0 {
				t.Fatalf("a round-2 report in round 1: %d stashed, %d counted", len(h.n.pending), h.n.got)
			}
			must(t, h.deliver(2*ms, h.report(w0, 2)))
			must(t, h.expire(2*ms+time.Minute))
			wantLog(t, h, "save 1", w0+" tier-update@2", w1+" tier-update@2")
			// Round 2 opens with the stashed report counted: at quorum.
			must(t, h.expire(2*ms+time.Minute))
			if len(h.n.pending) != 0 || h.n.got != 1 {
				t.Fatalf("round 2 opened with %d stashed, %d counted; want the stash admitted", len(h.n.pending), h.n.got)
			}
			wantWake(t, h, 2*ms+2*time.Minute)
			must(t, h.deliver(2*time.Minute, h.report(w0, 4)))
			wantLog(t, h, CloudID+" tier-report@4")
		}},
		{name: "future report vetted on delivery", opts: tolerant, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			three := h.report(w0, 4)
			three.Vectors = append(three.Vectors, h.x0.Clone())
			for _, tc := range []struct {
				msg  transport.Message
				want string
			}{
				{h.report("nobody", 4), "not a level-2 node"},
				{h.report(WorkerID(1, 0), 4), "another node's child"},
				{three, "carries 3 vectors"},
			} {
				err := h.deliver(1*ms, tc.msg)
				if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.msg.From)) {
					t.Errorf("a round-2 report from %s in round 1: %v, want a refusal naming it (%s)", tc.msg.From, err, tc.want)
				}
			}
			if len(h.n.pending) != 0 {
				t.Fatalf("%d refused reports stashed", len(h.n.pending))
			}
		}},
		{name: "future report past the run or off the period refused", opts: tolerant, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			// edge-0 aggregates every τ = 2 iterations through T.
			for _, round := range []int{h.n.cfg.T + 2, 1 << 30, 3} {
				if err := h.deliver(1*ms, h.report(w1, round)); !errors.Is(err, ErrMalformedReport) || !strings.Contains(err.Error(), w1) {
					t.Errorf("a report for round %d: %v, want a wrapped ErrMalformedReport naming %s", round, err, w1)
				}
			}
			if len(h.n.pending) != 0 {
				t.Fatalf("%d refused reports stashed", len(h.n.pending))
			}
		}},
		{name: "repeated future report counted duplicate on arrival", opts: tolerant, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			for range 3 {
				must(t, h.deliver(1*ms, h.report(w1, 4)))
			}
			if dup := h.tally().Total(telemetry.Duplicate); len(h.n.pending) != 1 || dup != 2 {
				t.Fatalf("three copies of one round-2 report: %d stashed, %d duplicates; want 1, 2", len(h.n.pending), dup)
			}
			must(t, h.deliver(2*ms, h.report(w0, 2)))
			must(t, h.expire(2*ms+time.Minute))
			must(t, h.expire(2*ms+time.Minute))
			// Round 2 admits the one stashed copy and counts no more.
			if dup := h.tally().Total(telemetry.Duplicate); len(h.n.pending) != 0 || h.n.got != 1 || dup != 2 {
				t.Fatalf("round 2 opened with %d stashed, %d counted, %d duplicates; want 0, 1, 2", len(h.n.pending), h.n.got, dup)
			}
		}},
		{name: "future report outside its round's cohort counted stale", opts: joining, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			// Round 2's cohort does not hold the joiner yet; round 3's does.
			must(t, h.deliver(1*ms, h.report(w1, 4)))
			if stale := h.tally().Total(telemetry.Stale); len(h.n.pending) != 0 || stale != 1 {
				t.Fatalf("the joiner's round-2 report: %d stashed, %d stale; want it counted stale", len(h.n.pending), stale)
			}
			must(t, h.deliver(2*ms, h.report(w1, 6)))
			if stale := h.tally().Total(telemetry.Stale); len(h.n.pending) != 1 || stale != 1 {
				t.Fatalf("the joiner's round-3 report: %d stashed, %d stale; want it stashed", len(h.n.pending), stale)
			}
		}},
		{name: "future report refused when strict", opts: Options{Adaptive: true}, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			if err := h.deliver(1*ms, h.report(w1, 4)); err == nil || !strings.Contains(err.Error(), "future round") ||
				!strings.Contains(err.Error(), w1) {
				t.Fatalf("a future report in strict mode: %v, want a refusal naming %s", err, w1)
			}
		}},
		{name: "stale and duplicate reports counted", opts: Options{Adaptive: true}, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			must(t, h.deliver(1*ms, h.report(w0, 0)))
			must(t, h.deliver(2*ms, transport.Message{From: CloudID, Kind: KindTierUpdate, Round: 0,
				Vectors: [][]float64{h.x0.Clone(), h.x0.Clone()}}))
			must(t, h.deliver(3*ms, h.report(w0, 2)))
			// A duplicate must not overwrite the slot or inflate the count.
			must(t, h.deliver(4*ms, h.report(w0, 2)))
			if tally := h.tally(); tally.Total(telemetry.Stale) != 2 || tally.Total(telemetry.Duplicate) != 1 || h.n.got != 1 {
				t.Fatalf("stale %d, duplicate %d, counted %d; want 2, 1, 1",
					tally.Total(telemetry.Stale), tally.Total(telemetry.Duplicate), h.n.got)
			}
			must(t, h.deliver(5*ms, h.report(w1, 2)))
			wantLog(t, h, "save 1", w0+" tier-update@2", w1+" tier-update@2")
		}},
		{name: "mid-collect parent update fast-forwards", middle: true, opts: tolerant, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			y, x := h.x0.Clone(), h.x0.Clone()
			y[0], x[0] = y[0]+1, x[0]+2
			// The root completed the second sync (t = 8) without this node.
			must(t, h.deliver(1*ms, transport.Message{From: "cloud-0", Kind: KindTierUpdate, Round: 8, Vectors: [][]float64{y, x}}))
			wantLog(t, h, "save 2", "edge-0 tier-update@8", "edge-1 tier-update@8")
			if h.n.k != 2 || h.n.phase != tierBegin || h.n.tier.YMinus[0] != y[0] || h.n.tier.XPlus[0] != x[0] {
				t.Fatalf("round %d phase %d y[0]=%v x[0]=%v; want round 2 settled on the adopted state",
					h.n.k, h.n.phase, h.n.tier.YMinus[0], h.n.tier.XPlus[0])
			}
		}},
		{name: "mid-collect parent update stale when strict", middle: true, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			must(t, h.deliver(1*ms, transport.Message{From: "cloud-0", Kind: KindTierUpdate, Round: 8,
				Vectors: [][]float64{h.x0.Clone(), h.x0.Clone()}}))
			wantLog(t, h)
			if stale := h.tally().Total(telemetry.Stale); stale != 1 || h.n.phase != tierCollect {
				t.Fatalf("strict: stale %d, phase %d; want the update discarded as stale mid-collect", stale, h.n.phase)
			}
			if err := h.expire(DefaultRecvTimeout); !errors.Is(err, transport.ErrTimeout) {
				t.Fatalf("strict collect at the deadline: %v, want a wrapped ErrTimeout", err)
			}
		}},
		{name: "parent sync ridden out", middle: true, opts: tolerant, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			must(t, h.deliver(1*ms, h.report("edge-0", 4)))
			must(t, h.deliver(2*ms, h.report("edge-1", 4)))
			must(t, h.expire(2*ms))
			must(t, h.deliver(3*ms, h.report("edge-0", 8)))
			must(t, h.deliver(4*ms, h.report("edge-1", 8)))
			wantLog(t, h, "save 1", "edge-0 tier-update@4", "edge-1 tier-update@4", "cloud-0 tier-report@8")
			must(t, h.expire(5*ms))
			wantWake(t, h, 5*ms+time.Hour)
			must(t, h.expire(5*ms+time.Hour))
			wantLog(t, h, "save 2", "edge-0 tier-update@8", "edge-1 tier-update@8")
			if got := h.tally().Total(telemetry.TimedOut); got != 1 {
				t.Errorf("%d timeouts, want the ride-out counted", got)
			}
		}},
		{name: "second consecutive miss fails", middle: true, opts: tolerant, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			must(t, h.deliver(1*ms, h.report("edge-0", 4)))
			// Above the leaf parent the grace is (τℓ/τℓ₊₁ + 1) = 3 graces.
			wantWake(t, h, 1*ms+3*time.Minute)
			must(t, h.expire(1*ms+3*time.Minute))
			wantLog(t, h, "save 1", "edge-0 tier-update@4", "edge-1 tier-update@4")
			if missed := h.tally().Missed; h.n.missStreak[1] != 1 || missed[telemetry.TierRound{Tier: 1, T: 4}] != 1 {
				t.Fatalf("edge-1's streak %d, misses %v; want one substituted miss at t=4", h.n.missStreak[1], missed)
			}
			must(t, h.expire(1*ms+3*time.Minute))
			must(t, h.deliver(4*time.Minute, h.report("edge-0", 8)))
			err := h.expire(7 * time.Minute)
			if !errors.Is(err, transport.ErrTimeout) || !strings.Contains(err.Error(), "child edge-1 missed 2 consecutive rounds of region-0") {
				t.Fatalf("second miss: %v, want the consecutive-miss diagnosis wrapping ErrTimeout", err)
			}
		}},
		{name: "malformed reports", opts: Options{Adaptive: true}, run: func(t *testing.T, h *tierHarness) {
			h.begin(t)
			three := h.report(w0, 2)
			three.Vectors = append(three.Vectors, h.x0.Clone())
			for _, msg := range []transport.Message{
				three,
				h.report(w0, 2, map[string]float64{ScalarLoss: 1, ScalarCos: 1.5}),
			} {
				if err := h.deliver(1*ms, msg); !errors.Is(err, ErrMalformedReport) || !strings.Contains(err.Error(), w0) {
					t.Errorf("malformed report: %v, want a wrapped ErrMalformedReport naming %s", err, w0)
				}
			}
		}},
		{name: "root close queues the save and the update but no point", root: true, opts: Options{Adaptive: true},
			run: func(t *testing.T, h *tierHarness) {
				h.begin(t)
				for k := 1; k <= 2; k++ {
					syncRoot(t, h, k)
					wantLog(t, h, fmt.Sprintf("save %d", k), fmt.Sprintf("%s tier-update@%d", EdgeID(0), 4*k),
						fmt.Sprintf("%s tier-update@%d", EdgeID(1), 4*k))
					wantCurve(t, h)
					// Point k is the next expire's, and only on the
					// EvalEvery = 8 period: t = 4 records none.
					must(t, h.expire(0))
				}
				wantCurve(t, h, 8)
				if p := h.n.res.Curve[0]; p.TrainLoss != 1 {
					t.Errorf("point 8 carries loss %v, want round 2's weighted loss 1", p.TrainLoss)
				}
				wantLog(t, h)
				for k := 3; k <= 4; k++ {
					syncRoot(t, h, k)
					must(t, h.expire(0))
				}
				wantCurve(t, h, 8, 16)
			}},
		{name: "root resume scores the snapshotted round's point", root: true, opts: Options{Adaptive: true},
			run: func(t *testing.T, h *tierHarness) {
				// Snapshot 2 ends at the previous point: none.
				must(t, h.flush(h.n.start(h.t0, 2)))
				wantLog(t, h, EdgeID(0)+" tier-update@8", EdgeID(1)+" tier-update@8")
				wantCurve(t, h)
				must(t, h.expire(0))
				wantCurve(t, h, 8)
				syncRoot(t, h, 3)
				must(t, h.expire(0))
				wantCurve(t, h, 8)
			}},
		{name: "root resume keeps a restored point, drops an off-period one", root: true, opts: Options{Adaptive: true},
			run: func(t *testing.T, h *tierHarness) {
				// A snapshot that already holds point 8 is not scored again;
				// its point off the EvalEvery period is dropped.
				restored := fl.Point{Iter: 8, TestAcc: 0.125, TrainLoss: 3}
				h.n.res.Curve = []fl.Point{{Iter: 4, TestAcc: 0.5, TrainLoss: 2}, restored}
				must(t, h.flush(h.n.start(h.t0, 2)))
				must(t, h.expire(0))
				if c := h.n.res.Curve; len(c) != 1 || c[0] != restored {
					t.Fatalf("curve %v, want the restored point 8 alone", c)
				}
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			var h *tierHarness
			switch {
			case row.middle:
				opts := row.opts
				opts.Topology = middle
				h = newTierHarness(t, cfg, 1, 0, opts)
			case row.root:
				h = newTierHarness(t, cfg, 0, 0, row.opts)
			default:
				h = newTierHarness(t, cfg, 1, 0, row.opts)
			}
			row.run(t, h)
		})
	}
}

// TestEdgeRejectsMalformedTerm: an adaptive leaf-parent admits a report only
// with an eq. (6) term in [-1, 1]. A missing, NaN or infinite term, or one out
// of range, fails the round the way a wrong vector count does — with
// ErrMalformedReport, naming the sender — since no honest leaf sends one.
// A plain-average parent reads no term and needs none.
func TestEdgeRejectsMalformedTerm(t *testing.T) {
	cfg := buildConfig(t, 61, 0)
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name     string
		adaptive bool
		vectors  int
		scalars  map[string]float64
		ok       bool
	}{
		{"term 1", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: 1}, true},
		{"term -1", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: -1}, true},
		{"term -0", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: negZero}, true},
		{"no term, plain parent", false, 2, map[string]float64{ScalarLoss: 1}, true},
		{"no term", true, 2, map[string]float64{ScalarLoss: 1}, false},
		{"no scalars", true, 2, nil, false},
		{"NaN term", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: math.NaN()}, false},
		{"+Inf term", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: math.Inf(1)}, false},
		{"-Inf term", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: math.Inf(-1)}, false},
		{"term above 1", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: math.Nextafter(1, 2)}, false},
		{"term below -1", true, 2, map[string]float64{ScalarLoss: 1, ScalarCos: -1.5}, false},
		{"four vectors", true, 4, map[string]float64{ScalarLoss: 1, ScalarCos: 0.5}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newTierHarness(t, cfg, 1, 0, Options{Adaptive: tc.adaptive})
			h.begin(t)
			msg := h.report(WorkerID(0, 0), cfg.Tau, tc.scalars)
			msg.Vectors = make([][]float64, tc.vectors)
			for v := range msg.Vectors {
				msg.Vectors[v] = h.x0.Clone()
			}
			err := h.deliver(0, msg)
			if !tc.ok {
				if !errors.Is(err, ErrMalformedReport) || !strings.Contains(err.Error(), WorkerID(0, 0)) {
					t.Fatalf("deliver = %v, want a wrapped ErrMalformedReport naming %s", err, WorkerID(0, 0))
				}
				return
			}
			must(t, err)
			// The second report closes the round: the aggregation reads the
			// admitted term.
			must(t, h.deliver(0, h.report(WorkerID(0, 1), cfg.Tau)))
			if log := h.take(); len(log) == 0 || log[0] != "save 1" {
				t.Fatalf("outbox %q, want round 1 aggregated and settled", log)
			}
		})
	}
}

// FuzzTierMachine feeds arbitrary message sequences to a leaf-parent machine
// (edge-0) and a root machine (the cloud) of the 2×2 config's derived tree,
// static, churned (a join, a leave, a re-tiering due every root sync) or
// sampled (part=0.5 on the edges: one of each edge's two workers per round),
// in strict or quorum mode, driven as drive drives them: before every input
// the machine gets each expiry its wake time asks for. The first byte picks
// the mode (bit 0), the machine (bit 1) and the tree (bit 3 the sampled one,
// else bit 2 the churned one); each op after it is five bytes: how far the
// clock moves, then the message's kind (0: none, the op only moves the
// clock), round, sender, and vector count and eq. (6) term (none, in range,
// out of range, NaN, ±Inf). The machines must never panic, every error must
// be a typed one (ErrMalformedReport, ErrNotSampled, transport.ErrTimeout)
// or name the message's sender, the ride-ahead stash must never hold two
// reports of one sender for one round or one past T, and one input sequence
// must always give the same outbox sequence. Every redistribution is the
// tree's hand-off of its round: the update or ADMIT goes to Tree.Handoff's
// cohort — on the sampled tree, at an edge round that does not sync with the
// cloud, to the round's sample alone — ADMIT to its newcomers alone, RETIRE
// to its retirees alone, and the root's REASSIGN carries Tree.Retier's moves
// exactly when a re-tiering takes effect at the next leaf-parent round. On
// the sampled tree a report to edge-0 for the current or a later round from
// a worker that round's sample leaves out fails with ErrNotSampled, unless
// it is a loss alone at a cloud sync, and no other delivery does; in strict
// mode edge-0 aggregates exactly each round's sample.
func FuzzTierMachine(f *testing.F) {
	cfg := buildConfig(f, 61, 0)
	plan, err := membership.ParseSpec("join:" + WorkerID(0, 1) + "@3,leave:" + WorkerID(0, 0) + "@7")
	if err != nil {
		f.Fatal(err)
	}
	churned, err := scenario{churn: &plan, retier: 1}.resolve(cfg)
	if err != nil {
		f.Fatal(err)
	}
	// The churned tree must exercise every control message at edge-0.
	var admits, retires, moves int
	for k := 1; k <= cfg.T/cfg.Tau; k++ {
		h := churned.Handoff(1, 0, k)
		admits, retires = admits+len(h.Joins), retires+len(h.Retires)
		m, _ := churned.Retier(k)
		moves += len(m)
	}
	if admits == 0 || retires == 0 || moves == 0 {
		f.Fatalf("the churned tree admits %d, retires %d and moves %d leaves at edge-0", admits, retires, moves)
	}
	sampled, err := cfg.Tree(nil)
	if err == nil {
		sampled, err = sampled.WithParticipation(0.5, cfg.Seed, cfg.T)
	}
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0, 0, 1, 2, 0, 1, 1, 2, 1, 1, 0, 1, 4, 0, 1, 1, 1, 4, 1, 1})
	f.Add([]byte{1, 50, 1, 6, 3, 9, 200, 0, 0, 0, 0, 2, 2, 8, 5, 2})
	f.Add([]byte{1, 0, 1, 4, 3, 1, 0, 1, 4, 4, 1, 9, 2, 10, 2, 7, 255, 5, 9, 6, 0})
	// Churned: edge-0 admits worker-0-1 after round 2, and the cloud
	// announces the re-tiering due at leaf-parent round 3.
	f.Add([]byte{6, 0, 1, 6, 0, 6, 0, 1, 8, 0, 6, 0, 2, 8, 5, 2, 0, 1, 10, 0, 6, 0, 1, 10, 1, 6})
	f.Add([]byte{4, 0, 1, 8, 3, 2, 0, 1, 8, 4, 2, 0, 1, 12, 3, 2, 0, 1, 12, 4, 2})
	// Sampled, strict: edge-0's round-1 sample reports, a worker left out
	// reports too, and at the cloud sync (t = 4) one sends its loss alone.
	f.Add([]byte{10, 0, 1, 6, 1, 6, 0, 1, 6, 0, 6, 0, 1, 8, 0, 4, 0, 1, 8, 1, 4, 0, 1, 8, 0, 6})
	// Sampled, quorum, the cloud: edge reports and updates run their course.
	f.Add([]byte{9, 0, 1, 8, 3, 2, 0, 1, 8, 4, 2, 0, 1, 12, 3, 2, 50, 0, 0, 0, 0})
	cosines := []float64{0.5, -1, 1, math.NaN(), math.Inf(1), math.Inf(-1), 1.5}
	senders := []string{WorkerID(0, 0), WorkerID(0, 1), WorkerID(1, 0), EdgeID(0), EdgeID(1), CloudID, "nobody"}
	kinds := []string{"", KindTierReport, KindTierUpdate, KindAdmit, KindRetire, KindReassign, "bogus"}
	run := func(t *testing.T, in []byte) []string {
		if len(in) == 0 {
			return nil
		}
		opts := Options{Adaptive: true, RecvTimeout: time.Second, StragglerDeadline: 200 * time.Millisecond}
		if in[0]&1 != 0 {
			opts.MinQuorum = 0.5
		}
		lvl := int(in[0]>>1) & 1
		switch {
		case in[0]&8 != 0:
			opts.Tree = sampled
		case in[0]&4 != 0:
			opts.Tree = churned
		}
		h := newTierHarness(t, cfg, lvl, 0, opts)
		tree := h.n.ts.tree
		// strictSample: edge-0 of the sampled tree in strict mode, which
		// aggregates exactly each round's sample; ffK is the round the last
		// fast-forward jumped to, whose reporters are an earlier round's.
		strictSample := lvl == 1 && opts.MinQuorum == 0 && tree.Participation() != 1
		fastForwards, ffK := 0, -1
		var log []string
		// record logs the outbox after an input, holds every redistribution
		// in it to the tree's hand-off of its round, and holds the stash to
		// one report per sender and round, none past the run's last.
		ids := func(c []int) []string {
			out := make([]string, len(c))
			for i, j := range c {
				out[i] = tree.ID(lvl+1, j)
			}
			return out
		}
		record := func() {
			sent := make(map[int]map[string][]string) // round → kind → recipients
			for _, e := range h.n.box.effects {
				log = append(log, fmt.Sprintf("%s %v %v", describe(e), e.msg.Vectors, e.msg.Scalars))
				if e.to == "" || e.msg.Kind == KindTierReport {
					continue
				}
				if sent[e.msg.Round] == nil {
					sent[e.msg.Round] = make(map[string][]string)
				}
				sent[e.msg.Round][e.msg.Kind] = append(sent[e.msg.Round][e.msg.Kind], e.to)
				if e.msg.Kind != KindReassign {
					continue
				}
				// The payload: (natal parent, position, new parent) per move.
				moves, _ := tree.Retier(e.msg.Round/cfg.Tau + 1)
				var want []float64
				for _, m := range moves {
					p, pos := tree.Natal(m.Leaf)
					want = append(want, float64(p), float64(pos), float64(m.To))
				}
				if len(e.msg.Vectors) != 1 || !slices.Equal(e.msg.Vectors[0], want) {
					t.Fatalf("REASSIGN@%d to %s carries %v, want Tree.Retier's moves %v", e.msg.Round, e.to, e.msg.Vectors, moves)
				}
			}
			for round, kinds := range sent {
				hand := tree.Handoff(lvl, 0, round/h.n.tau())
				if k := round / h.n.tau(); lvl == 1 && !h.n.ts.syncsUp(lvl, k) && tree.Sample(0, k) != nil {
					var picked []int
					for _, pos := range tree.Sample(0, k) {
						picked = append(picked, hand.Cohort[pos])
					}
					hand.Cohort = picked
				}
				_, retier := tree.Retier(round/cfg.Tau + 1)
				var reassign []string
				if lvl == 0 && retier {
					reassign = []string{EdgeID(0), EdgeID(1)}
				}
				if got := slices.Concat(kinds[KindTierUpdate], kinds[KindAdmit]); !slices.Equal(sortedIDs(got), sortedIDs(ids(hand.Cohort))) ||
					!slices.Equal(sortedIDs(kinds[KindAdmit]), sortedIDs(ids(hand.Joins))) ||
					!slices.Equal(kinds[KindRetire], ids(hand.Retires)) || !slices.Equal(kinds[KindReassign], reassign) {
					t.Fatalf("round %d redistributed %v, want the hand-off %+v (re-tiering: %v)", round, kinds, hand, retier)
				}
			}
			h.n.box.effects = h.n.box.effects[:0]
			if strictSample {
				if ff := h.tally().Total(telemetry.FastForwarded); ff != fastForwards {
					fastForwards, ffK = ff, h.n.k
				}
				if k := h.n.k; k >= 1 && k != ffK && h.n.phase != tierCollect && !slices.Equal(h.n.reporters, tree.Sample(0, k)) {
					t.Fatalf("round %d aggregated positions %v, the sample is %v", k, h.n.reporters, tree.Sample(0, k))
				}
			}
			for i, p := range h.n.pending {
				if p.Round > cfg.T {
					t.Fatalf("a report for round %d stashed past T = %d", p.Round, cfg.T)
				}
				if slices.ContainsFunc(h.n.pending[:i], func(q transport.Message) bool { return q.From == p.From && q.Round == p.Round }) {
					t.Fatalf("two reports from %s for round %d stashed", p.From, p.Round)
				}
			}
		}
		// A delivery's error must name its sender. An expiry names none: a
		// stashed report was vetted when it was delivered.
		check := func(err error, from ...string) bool {
			if err == nil {
				return true
			}
			named := slices.ContainsFunc(from, func(id string) bool { return strings.Contains(err.Error(), fmt.Sprintf("%q", id)) })
			if !named && !errors.Is(err, ErrMalformedReport) && !errors.Is(err, ErrNotSampled) && !errors.Is(err, transport.ErrTimeout) {
				t.Fatalf("untyped error naming no sender of %q: %v", from, err)
			}
			log = append(log, "error "+err.Error())
			return false
		}
		now := h.t0
		if !check(h.n.start(now, 0)) {
			return log
		}
		record()
		for op := in[1:]; len(op) >= 5; op = op[5:] {
			now = now.Add(time.Duration(op[0]) * 10 * time.Millisecond)
			for wakes := 0; !h.n.box.done && !now.Before(h.n.box.wake); wakes++ {
				if wakes > 1000 {
					t.Fatalf("the machine keeps asking for expiries at %v", now)
				}
				err := h.n.expire(now)
				record()
				if !check(err) {
					return log
				}
			}
			kind := kinds[int(op[1])%len(kinds)]
			if h.n.box.done || kind == "" {
				continue
			}
			msg := transport.Message{From: senders[int(op[3])%len(senders)], Kind: kind, Round: int(op[2]%32) - 4,
				Vectors: make([][]float64, op[4]%4)}
			for v := range msg.Vectors {
				msg.Vectors[v] = h.x0.Clone()
			}
			if c := int(op[4]>>2) % (len(cosines) + 1); c > 0 {
				msg.Scalars = map[string]float64{ScalarLoss: 1, ScalarCos: cosines[c-1]}
			}
			// A report for the current or a later round from an edge-0 worker
			// that round's sample leaves out is refused as such, unless it is
			// a loss alone at a cloud sync.
			left := false
			if r := msg.Round; lvl == 1 && h.n.phase == tierCollect && kind == KindTierReport && tree.Participation() != 1 &&
				r >= h.n.want() && r <= cfg.T && r%cfg.Tau == 0 {
				if l, c, ok := tree.Lookup(msg.From); ok && l == 2 {
					if pos, in := position(h.n.kids, c); in {
						_, sampledIn := slices.BinarySearch(tree.Sample(0, r/cfg.Tau), pos)
						left = !sampledIn && !(len(msg.Vectors) == 0 && r%(cfg.Tau*cfg.Pi) == 0)
					}
				}
			}
			err := h.n.deliver(now, msg)
			record()
			if errors.Is(err, ErrNotSampled) != left {
				t.Fatalf("report from %s for round %d (sample %v) failed with %v", msg.From, msg.Round, tree.Sample(0, max(h.n.k, 1)), err)
			}
			if !check(err, msg.From) {
				return log
			}
		}
		return log
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		first := run(t, in)
		if again := run(t, in); !slices.Equal(first, again) {
			t.Fatalf("one input, two outbox sequences:\n%q\n%q", first, again)
		}
	})
}

// sortedIDs returns ids sorted, nil for none.
func sortedIDs(ids []string) []string {
	if len(ids) == 0 {
		return nil
	}
	ids = slices.Clone(ids)
	slices.Sort(ids)
	return ids
}
