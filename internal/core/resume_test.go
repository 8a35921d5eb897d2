package core

import (
	"testing"

	"hieradmo/internal/checkpoint/ckpttest"
	"hieradmo/internal/fl"
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

func poolName(pool int) string {
	return "pool-" + string(rune('0'+pool))
}
