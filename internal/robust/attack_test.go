package robust

import (
	"reflect"
	"testing"

	"hieradmo/internal/tensor"
)

func vecs(vs ...[]float64) []tensor.Vector {
	out := make([]tensor.Vector, len(vs))
	for i, v := range vs {
		out[i] = tensor.Vector(v)
	}
	return out
}

func TestParsePlanRoundTrip(t *testing.T) {
	plan, err := ParsePlan("signflip:worker-0-1@3, scale:worker-1-0@2-6=10, noise:worker-0-0@1=0.5, replay:worker-1-1@4-4", 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Attacks) != 4 {
		t.Fatalf("got %d attacks, want 4", len(plan.Attacks))
	}
	want := Attack{Node: "worker-1-0", Kind: Scale, From: 2, To: 6, Param: 10}
	if plan.Attacks[1] != want {
		t.Fatalf("attack[1] = %+v, want %+v", plan.Attacks[1], want)
	}
	// Signature is canonical: re-parsing a reordered spec matches.
	reordered, err := ParsePlan("replay:worker-1-1@4-4,noise:worker-0-0@1=0.5,signflip:worker-0-1@3,scale:worker-1-0@2-6=10", 9)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Signature() != reordered.Signature() {
		t.Fatalf("signatures differ:\n%s\n%s", plan.Signature(), reordered.Signature())
	}
}

func TestParsePlanDefaultsAndErrors(t *testing.T) {
	plan, err := ParsePlan("scale:w@1,noise:w2@2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Attacks[0].Param != 10 || plan.Attacks[1].Param != 0.1 {
		t.Fatalf("default params = %g, %g", plan.Attacks[0].Param, plan.Attacks[1].Param)
	}
	if p, err := ParsePlan("", 1); p != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", p, err)
	}
	for _, bad := range []string{
		"flip:w@1",          // unknown kind
		"signflip:w",        // missing window
		"signflip:w@0",      // round < 1
		"signflip:w@5-2",    // inverted window
		"noise:w@1=0",       // sigma <= 0
		"scale:w@1=1",       // identity scale
		"signflip",          // no colon
		"signflip:w@x",      // bad round
		"scale:w@1=banana",  // bad param
		"signflip:w@1-nope", // bad to-round
	} {
		if _, err := ParsePlan(bad, 1); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestAttackerWindowAndKinds(t *testing.T) {
	plan := &AttackPlan{Seed: 7, Attacks: []Attack{
		{Node: "w", Kind: SignFlip, From: 2, To: 3},
		{Node: "w", Kind: Scale, From: 4, Param: 10},
	}}
	if plan.Attacker("other", 2, 3) != nil {
		t.Fatal("unaffected node got an attacker")
	}
	att := plan.Attacker("w", 2, 3)
	honest := vecs([]float64{1, -2, 3}, []float64{0.5, 0, -1})

	out, kind, hit, err := att.Apply(1, honest)
	if err != nil || hit || kind != "" {
		t.Fatalf("round 1: hit=%v kind=%q err=%v", hit, kind, err)
	}
	if &out[0][0] != &honest[0][0] {
		t.Fatal("no-attack round must pass vectors through unmutated")
	}

	out, kind, hit, err = att.Apply(2, honest)
	if err != nil || !hit || kind != SignFlip {
		t.Fatalf("round 2: hit=%v kind=%q err=%v", hit, kind, err)
	}
	if out[0][0] != -1 || out[1][2] != 1 {
		t.Fatalf("signflip output %v", out)
	}
	if honest[0][0] != 1 {
		t.Fatal("signflip mutated the caller's vectors")
	}

	out, _, _, err = att.Apply(4, honest)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 10 || out[1][0] != 5 {
		t.Fatalf("scale output %v", out)
	}
}

func TestAttackerNoiseDeterministicPerRound(t *testing.T) {
	plan := &AttackPlan{Seed: 11, Attacks: []Attack{{Node: "w", Kind: Noise, From: 1, Param: 0.5}}}
	honest := vecs([]float64{1, 2}, []float64{3, 4})

	a1 := plan.Attacker("w", 2, 2)
	out1, _, _, err := a1.Apply(3, honest)
	if err != nil {
		t.Fatal(err)
	}
	got1 := append(append([]float64{}, out1[0]...), out1[1]...)

	// A fresh attacker (a resumed worker) reproduces round 3 exactly,
	// with no dependence on earlier rounds having been drawn.
	a2 := plan.Attacker("w", 2, 2)
	if _, _, _, err := a2.Apply(1, honest); err != nil {
		t.Fatal(err)
	}
	out2, _, _, err := a2.Apply(3, honest)
	if err != nil {
		t.Fatal(err)
	}
	got2 := append(append([]float64{}, out2[0]...), out2[1]...)
	if !reflect.DeepEqual(got1, got2) {
		t.Fatalf("noise not replayable: %v vs %v", got1, got2)
	}
	if reflect.DeepEqual(got1, []float64{1, 2, 3, 4}) {
		t.Fatal("noise attack did nothing")
	}

	// Different rounds draw different noise.
	out3, _, _, err := a2.Apply(4, honest)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(got2, append(append([]float64{}, out3[0]...), out3[1]...)) {
		t.Fatal("rounds 3 and 4 drew identical noise")
	}
}

func TestAttackerReplay(t *testing.T) {
	plan := &AttackPlan{Seed: 1, Attacks: []Attack{{Node: "w", Kind: Replay, From: 1}}}
	att := plan.Attacker("w", 1, 2)

	// First boundary: nothing to replay, honest and uncounted.
	r1 := vecs([]float64{1, 1})
	out, _, hit, err := att.Apply(1, r1)
	if err != nil || hit {
		t.Fatalf("first boundary: hit=%v err=%v", hit, err)
	}
	if out[0][0] != 1 {
		t.Fatalf("first boundary output %v", out)
	}

	// Second boundary replays round 1's report.
	r2 := vecs([]float64{2, 2})
	var kind string
	out, kind, hit, err = att.Apply(2, r2)
	if err != nil || !hit || kind != Replay {
		t.Fatalf("second boundary: kind=%q hit=%v err=%v", kind, hit, err)
	}
	if out[0][0] != 1 {
		t.Fatalf("replay sent %v, want round-1 bytes", out)
	}

	// Third boundary replays round 2's honest report, not the mutated
	// bytes: the stash always tracks what the node really computed.
	r3 := vecs([]float64{3, 3})
	out, _, _, err = att.Apply(3, r3)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 2 {
		t.Fatalf("round 3 replayed %v, want round-2 honest bytes", out)
	}

	// Re-sending the same round (crash + resend) is idempotent: the
	// stash holds round 3, and replaying round 3 again re-reads it only
	// if the stash round logic is per-round pure. Simulate by restoring
	// the registered state.
	if *att.PrevRoundPtr() != 3 {
		t.Fatalf("stash round = %d, want 3", *att.PrevRoundPtr())
	}
}

func TestAttackerReplayResendIdempotent(t *testing.T) {
	plan := &AttackPlan{Seed: 1, Attacks: []Attack{{Node: "w", Kind: Replay, From: 2}}}
	att := plan.Attacker("w", 1, 1)
	if _, _, _, err := att.Apply(1, vecs([]float64{10})); err != nil {
		t.Fatal(err)
	}
	first, _, _, err := att.Apply(2, vecs([]float64{20}))
	if err != nil {
		t.Fatal(err)
	}
	v1 := first[0][0]
	// The same boundary re-applied (worker restarted inside the round
	// and recomputed the same honest report) must produce the same
	// bytes. After the first Apply the stash moved to round 2, so a
	// resumed worker restores the checkpointed stash before re-sending;
	// emulate that restore.
	*att.PrevRoundPtr() = 1
	att.PrevVectors()[0][0] = 10
	second, _, _, err := att.Apply(2, vecs([]float64{20}))
	if err != nil {
		t.Fatal(err)
	}
	if second[0][0] != v1 {
		t.Fatalf("re-sent round differs: %g vs %g", second[0][0], v1)
	}
}

func TestPlanSignatureDistinguishesPlans(t *testing.T) {
	p1, _ := ParsePlan("signflip:w@1", 3)
	p2, _ := ParsePlan("signflip:w@1", 4)
	p3, _ := ParsePlan("signflip:w@2", 3)
	var empty *AttackPlan
	sigs := map[string]bool{p1.Signature(): true, p2.Signature(): true, p3.Signature(): true, empty.Signature(): true}
	if len(sigs) != 4 {
		t.Fatalf("signatures collide: %v", sigs)
	}
}
