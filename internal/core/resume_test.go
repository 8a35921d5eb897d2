package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/checkpoint/ckpttest"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/robust"
	"hieradmo/internal/topology"
)

// assertSameResult fails unless a and b are bit-identical: same final
// metrics and the exact same curve.
func assertSameResult(t *testing.T, a, b *fl.Result) {
	t.Helper()
	if a.FinalAcc != b.FinalAcc || a.FinalLoss != b.FinalLoss {
		t.Fatalf("final metrics diverge: (%v, %v) vs (%v, %v)",
			a.FinalAcc, a.FinalLoss, b.FinalAcc, b.FinalLoss)
	}
	if len(a.Curve) != len(b.Curve) {
		t.Fatalf("curve lengths diverge: %d vs %d", len(a.Curve), len(b.Curve))
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("curve point %d diverges: %+v vs %+v", i, a.Curve[i], b.Curve[i])
		}
	}
}

// TestResumeBitIdentical is the recovery acceptance test for the simulation
// engine: a run interrupted mid-way and resumed from its checkpoint must
// reproduce the uninterrupted run's curve and final metrics exactly — for
// every worker-pool size, with partial participation and uplink quantization
// enabled (the options with their own RNG streams).
func TestResumeBitIdentical(t *testing.T) {
	build := func(pool int, dir string) *fl.Config {
		cfg := buildConfig(t, []int{2, 2}, 0, 7)
		cfg.EvalEvery = 8
		cfg.Workers = pool
		cfg.CheckpointDir = dir
		return cfg
	}
	newAlg := func() *HierAdMo {
		return New(WithParticipation(0.5), WithUplinkQuantization(4))
	}

	ref, err := newAlg().Run(build(1, ""))
	if err != nil {
		t.Fatal(err)
	}

	for _, pool := range []int{1, 2, 8} {
		t.Run(poolName(pool), func(t *testing.T) {
			dir := t.TempDir()

			// A checkpointed but uninterrupted run must already match the
			// reference: snapshotting is observation, not interference.
			full, err := newAlg().Run(build(pool, dir))
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, ref, full)

			// Rewind the directory past the newest generation — the state a
			// crash leaves — and rerun: the run resumes mid-training and must
			// land on the identical result.
			ckpttest.DeleteNewest(t, dir)
			resumed, err := newAlg().Run(build(pool, dir))
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, ref, resumed)
		})
	}
}

// TestResumeRefusesOtherConfig checks the fingerprint guard end to end: a
// checkpoint directory written under one configuration must refuse to seed a
// run under another.
func TestResumeRefusesOtherConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := buildConfig(t, []int{2, 2}, 0, 7)
	cfg.CheckpointDir = dir
	if _, err := New().Run(cfg); err != nil {
		t.Fatal(err)
	}

	other := buildConfig(t, []int{2, 2}, 0, 7)
	other.CheckpointDir = dir
	other.Eta = cfg.Eta * 2 // a silent hyper-parameter drift
	if _, err := New().Run(other); err == nil {
		t.Fatal("resuming under a different eta succeeded; want fingerprint mismatch")
	}

	// Different run options outside the Config must be caught too.
	variant := buildConfig(t, []int{2, 2}, 0, 7)
	variant.CheckpointDir = dir
	if _, err := New(WithParticipation(0.5)).Run(variant); err == nil {
		t.Fatal("resuming under different participation succeeded; want fingerprint mismatch")
	}
}

// TestResumeUnderAttackPlan: an attacker's replay stash is part of the
// simulation's snapshots, so a run under an attack plan resumes
// bit-identically while the replay window is still open at the resumed
// boundary; a snapshot taken under one plan refuses to seed a run under
// another; and a plan-less run's fingerprint names no plan at all.
func TestResumeUnderAttackPlan(t *testing.T) {
	cfg := buildConfig(t, []int{2, 2}, 0, 7)
	derived, err := cfg.Tree(nil)
	if err != nil {
		t.Fatal(err)
	}
	under := func(spec string) *topology.Tree {
		plan, err := robust.ParsePlan(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := derived.WithAttackPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	// The window opens at round 2 and never closes, so the last boundary a
	// rewound run replays still sends the stash of the round before it.
	planA, planB := under("replay:worker-0-1@2"), under("replay:worker-0-1@3")
	ref, err := New().RunTree(cfg, planA)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := New().RunTree(cfg, derived)
	if err != nil {
		t.Fatal(err)
	}
	if clean.FinalLoss == ref.FinalLoss {
		t.Fatalf("the replay plan left the final loss at %v", ref.FinalLoss)
	}

	dir := t.TempDir()
	cfg.CheckpointDir = dir
	full, err := New().RunTree(cfg, planA)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, ref, full)
	st := newestSnapshot(t, dir)
	for _, name := range []string{"attackPrev0", "attackPrev1", "attackPrev2", "attackPrev3"} {
		if _, ok := st.Vectors["worker/0/1/"+name]; !ok {
			t.Errorf("snapshot lacks the replay stash entry worker/0/1/%s", name)
		}
	}
	if k := st.Ints["worker/0/1/attackPrevRound"]; k != int64(st.Seq/cfg.Tau) {
		t.Errorf("worker/0/1/attackPrevRound = %d at t=%d, want round %d", k, st.Seq, st.Seq/cfg.Tau)
	}
	if !strings.HasSuffix(st.Fingerprint, " attack="+planA.AttackPlan().Signature()) {
		t.Errorf("fingerprint %q does not name the plan", st.Fingerprint)
	}
	ckpttest.DeleteNewest(t, dir)
	resumed, err := New().RunTree(cfg, planA)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, ref, resumed)
	if _, err := New().RunTree(cfg, planB); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("resuming a plan-A snapshot under plan B = %v, want ErrMismatch", err)
	}

	cfg.CheckpointDir = t.TempDir()
	if _, err := New().RunTree(cfg, derived); err != nil {
		t.Fatal(err)
	}
	if got, want := newestSnapshot(t, cfg.CheckpointDir).Fingerprint, cfg.Fingerprint("HierAdMo")+" "+New().variant(); got != want {
		t.Errorf("plan-less fingerprint %q, want %q", got, want)
	}
}

// TestResumeUnderChurn: a churn run crashed between the join and the first
// re-tiering resumes from its last snapshot and lands on the uninterrupted
// run bit for bit, training only the live leaves on the way; the snapshots
// carry the cluster's churn tokens, so resuming them under another plan is
// refused.
func TestResumeUnderChurn(t *testing.T) {
	build := func(dir string) (*fl.Config, *countingModel) {
		cfg := buildConfig(t, []int{2, 2}, 2, 7)
		cfg.EvalEvery = 8
		cfg.CheckpointDir = dir
		counter := &countingModel{Model: cfg.Model}
		cfg.Model = counter
		return cfg, counter
	}
	under := func(cfg *fl.Config, spec string) *topology.Tree {
		plan, err := membership.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		derived, err := cfg.Tree(nil)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := derived.WithMembership(plan, cfg.LeafStats(), cfg.T, 2, membership.MigrateRescale)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	// Rounds are τ = 2 iterations: the join lands at round 2, re-tiering at
	// round 5 (after the second root sync), the crash in round 4.
	const planA, planB = "join:worker-0-1@2,leave:worker-1-0@15", "join:worker-0-1@3,leave:worker-1-0@15"
	cfg, _ := build("")
	tree := under(cfg, planA)
	ref, err := New().RunTree(cfg, tree)
	if err != nil {
		t.Fatal(err)
	}
	if m := ref.Membership; m == nil || m.Joins != 1 || m.Leaves != 1 || m.Retierings < 1 || tree.Membership().EpochAt(5).Start != 5 {
		t.Fatalf("membership %v: the run must join, leave and re-tier at round 5", m)
	}
	before, total := int64(0), int64(0)
	for it := 1; it <= cfg.T; it++ {
		_, live := tree.Live(it)
		if it <= 6 {
			before += int64(len(live))
		}
		total += int64(len(live))
	}

	dir := t.TempDir()
	crashed, counter := build(dir)
	counter.crashAt = before + 1
	if _, err := New().RunTree(crashed, under(crashed, planA)); !errors.Is(err, errCrash) {
		t.Fatalf("crashed run = %v, want the injected crash", err)
	}
	if st := newestSnapshot(t, dir); st.Seq != 6 || !strings.HasSuffix(st.Fingerprint, " "+tree.Membership().Token) {
		t.Fatalf("snapshot at t=%d with fingerprint %q, want t=6 naming %q", st.Seq, st.Fingerprint, tree.Membership().Token)
	}
	resumed, counter := build(dir)
	res, err := New().RunTree(resumed, under(resumed, planA))
	if err != nil {
		t.Fatal(err)
	}
	if got := counter.calls.Load(); got != total-before {
		t.Errorf("resumed run took %d gradient steps, want %d", got, total-before)
	}
	assertSameResult(t, ref, res)
	if *res.Membership != *ref.Membership {
		t.Errorf("resumed membership %v, want %v", res.Membership, ref.Membership)
	}
	other, _ := build(dir)
	if _, err := New().RunTree(other, under(other, planB)); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("resuming a plan-A snapshot under plan B = %v, want ErrMismatch", err)
	}
}

// newestSnapshot decodes the highest-sequence snapshot in dir.
func newestSnapshot(t *testing.T, dir string) *checkpoint.State {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no snapshot in %s (%v)", dir, err)
	}
	var newest *checkpoint.State
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := checkpoint.Read(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if newest == nil || st.Seq > newest.Seq {
			newest = st
		}
	}
	return newest
}

func poolName(pool int) string {
	return "pool-" + string(rune('0'+pool))
}
