package core

import (
	"errors"
	"math"
	"testing"

	"hieradmo/internal/topology"
)

func TestParticipationFullMatchesDefault(t *testing.T) {
	// participation=1 must be byte-for-byte the default algorithm.
	cfg := buildConfig(t, []int{2, 2}, 2, 61)
	a, err := New().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(WithParticipation(1)).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAcc != b.FinalAcc || a.FinalLoss != b.FinalLoss {
		t.Errorf("full participation diverges: %v/%v vs %v/%v",
			a.FinalAcc, a.FinalLoss, b.FinalAcc, b.FinalLoss)
	}
}

func TestParticipationPartialRunsAndLearns(t *testing.T) {
	cfg := buildConfig(t, []int{4, 4}, 2, 63)
	cfg.T = 120
	res, err := New(WithParticipation(0.5)).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc < 0.4 { // chance = 0.25
		t.Errorf("partial participation accuracy %.3f, want >= 0.4", res.FinalAcc)
	}
}

func TestParticipationDeterministic(t *testing.T) {
	cfg := buildConfig(t, []int{4, 4}, 0, 65)
	a, err := New(WithParticipation(0.5)).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(WithParticipation(0.5)).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAcc != b.FinalAcc {
		t.Errorf("partial participation is not deterministic: %v vs %v", a.FinalAcc, b.FinalAcc)
	}
}

func TestParticipationOptionRefusesOutOfRange(t *testing.T) {
	// The option and a spec's part= share topology's validation: a fraction
	// outside (0, 1] fails the run at its start instead of running at full
	// participation.
	cfg := buildConfig(t, []int{2, 2}, 2, 61)
	for _, bad := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := New(WithParticipation(bad)).Run(cfg); !errors.Is(err, topology.ErrAttr) {
			t.Errorf("WithParticipation(%v): %v, want topology.ErrAttr", bad, err)
		}
	}
	h := New(WithParticipation(0.25))
	if h.participation != 0.25 {
		t.Errorf("participation = %v, want 0.25", h.participation)
	}
}
