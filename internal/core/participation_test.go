package core

import (
	"fmt"
	"sort"
	"testing"

	"hieradmo/internal/rng"
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

func TestParticipationOptionClamps(t *testing.T) {
	// Out-of-range fractions are ignored (keep full participation).
	for _, bad := range []float64{0, -0.5, 1.5} {
		h := New(WithParticipation(bad))
		if h.participation != 1 {
			t.Errorf("WithParticipation(%v) set %v, want 1", bad, h.participation)
		}
	}
	h := New(WithParticipation(0.25))
	if h.participation != 0.25 {
		t.Errorf("participation = %v, want 0.25", h.participation)
	}
}

func TestSampleParticipants(t *testing.T) {
	h := New(WithParticipation(0.5))
	r, perms := rng.New(9), rng.New(9)
	buf := make([]int, 8)
	for trial := 0; trial < 50; trial++ {
		// The reused buffer makes exactly rng.Perm's draws.
		want := perms.Perm(8)[:4]
		sort.Ints(want)
		idx := h.sampleParticipants(r, buf)
		if fmt.Sprint(idx) != fmt.Sprint(want) {
			t.Fatalf("trial %d: sampled %v, Perm's sorted prefix is %v", trial, idx, want)
		}
		if len(idx) != 4 {
			t.Fatalf("sampled %d of 8 at 0.5 participation", len(idx))
		}
		for j := 1; j < len(idx); j++ {
			if idx[j] <= idx[j-1] {
				t.Fatalf("indices not strictly increasing: %v", idx)
			}
		}
		for _, i := range idx {
			if i < 0 || i >= 8 {
				t.Fatalf("index %d out of range", i)
			}
		}
	}
	// At least one worker always participates.
	tiny := New(WithParticipation(0.01))
	if got := tiny.sampleParticipants(r, make([]int, 4)); len(got) != 1 {
		t.Errorf("minimum participation %d, want 1", len(got))
	}
	// Full participation returns everyone in order.
	full := New()
	idx := full.sampleParticipants(r, make([]int, 3))
	if len(idx) != 3 || idx[0] != 0 || idx[2] != 2 {
		t.Errorf("full participation indices %v", idx)
	}
}

func TestParticipationSchedule(t *testing.T) {
	workersPerEdge := []int{4, 3}
	a := ParticipationSchedule(67, 0.5, workersPerEdge, 6)
	b := ParticipationSchedule(67, 0.5, workersPerEdge, 6)
	if len(a) != 6 {
		t.Fatalf("schedule has %d rounds, want 6", len(a))
	}
	for k := range a {
		for l, n := range workersPerEdge {
			cohort := a[k][l]
			// k = int(frac*n + 0.5), at least 1: 4→2, 3→2.
			want := int(0.5*float64(n) + 0.5)
			if len(cohort) != want {
				t.Errorf("round %d edge %d cohort size %d, want %d", k, l, len(cohort), want)
			}
			for j, i := range cohort {
				if i < 0 || i >= n {
					t.Errorf("round %d edge %d index %d out of range [0,%d)", k, l, i, n)
				}
				if j > 0 && cohort[j] <= cohort[j-1] {
					t.Errorf("round %d edge %d cohort not strictly increasing: %v", k, l, cohort)
				}
			}
			if len(b[k][l]) != len(cohort) {
				t.Fatalf("same seed diverges at round %d edge %d", k, l)
			}
			for j := range cohort {
				if b[k][l][j] != cohort[j] {
					t.Fatalf("same seed diverges at round %d edge %d: %v vs %v", k, l, cohort, b[k][l])
				}
			}
		}
	}
	// A different seed must produce a different schedule somewhere.
	c := ParticipationSchedule(68, 0.5, workersPerEdge, 6)
	same := true
	for k := range a {
		for l := range a[k] {
			for j := range a[k][l] {
				if c[k][l][j] != a[k][l][j] {
					same = false
				}
			}
		}
	}
	if same {
		t.Error("seeds 67 and 68 produced identical schedules")
	}
}
