package baseline

import (
	"errors"
	"fmt"
	"testing"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/checkpoint/ckpttest"
	"hieradmo/internal/fl"
)

// assertSameResult fails unless a and b are bit-identical.
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

// TestBaselinesResumeBitIdentical verifies crash recovery across every
// baseline: an interrupted-and-resumed run reproduces the uninterrupted
// run's curve and final metrics exactly, at several worker-pool sizes.
func TestBaselinesResumeBitIdentical(t *testing.T) {
	for _, alg := range allAlgorithms() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := buildConfig(t, 11)
			cfg.T = 40
			cfg.EvalEvery = 8
			ref, err := alg.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			for _, pool := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("pool-%d", pool), func(t *testing.T) {
					dir := t.TempDir()
					run := func() *fl.Result {
						c := buildConfig(t, 11)
						c.T = 40
						c.EvalEvery = 8
						c.Workers = pool
						c.CheckpointDir = dir
						res, err := alg.Run(c)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					assertSameResult(t, ref, run())
					ckpttest.DeleteNewest(t, dir)
					assertSameResult(t, ref, run())
				})
			}
		})
	}
}

// TestLegacyBaselineSnapshotRefused: a baseline's snapshot now holds kernel
// leaves and tiers, so its fingerprint carries a layout token. A snapshot
// family written by the hand-written FedAvg loop — same config, same file
// prefix, bare fingerprint, its own entry names — is refused up front with
// ErrMismatch, never half-read into the new layout.
func TestLegacyBaselineSnapshotRefused(t *testing.T) {
	cfg := buildConfig(t, 13)
	cfg.T = 40
	cfg.CheckpointDir = t.TempDir()
	mgr, err := checkpoint.NewManager(cfg.CheckpointDir, "sim-fedavg")
	if err != nil {
		t.Fatal(err)
	}
	legacy := checkpoint.NewRegistry(mgr, cfg.Fingerprint("FedAvg"))
	dim := cfg.Model.Dim()
	for _, name := range []string{"x/0", "x/1", "x/2", "x/3", "server"} {
		legacy.Vector(name, make([]float64, dim))
	}
	if err := legacy.Save(8); err != nil {
		t.Fatal(err)
	}
	_, err = NewFedAvg().Run(cfg)
	if !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume from a legacy snapshot = %v, want wrapped checkpoint.ErrMismatch", err)
	}
	if errors.Is(err, checkpoint.ErrFormat) {
		t.Errorf("the legacy snapshot was opened and half-read before being refused: %v", err)
	}
}
