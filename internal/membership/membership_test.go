package membership

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// grid names the leaves of a [counts[0], counts[1], ...] topology as the
// derived tree does ("worker-<edge>-<index>") and lists their natal edges,
// in leaf order.
func grid(counts ...int) (ids []string, parents []int) {
	for l, n := range counts {
		for i := 0; i < n; i++ {
			ids = append(ids, fmt.Sprintf("worker-%d-%d", l, i))
			parents = append(parents, l)
		}
	}
	return ids, parents
}

// uniformStats gives every worker weight 10 and a one-hot histogram cycling
// over numClasses classes, so clustering has structure to find.
func uniformStats(n, numClasses int) []WorkerStat {
	stats := make([]WorkerStat, n)
	for i := range stats {
		hist := make([]float64, numClasses)
		hist[i%numClasses] = 1
		stats[i] = WorkerStat{Weight: 10, Hist: hist}
	}
	return stats
}

// build resolves the plan's IDs against the grid (-1 for an ID it lacks)
// and builds the schedule, as topology.Tree.WithMembership does.
func build(plan Plan, K, pi, retierEvery int, counts ...int) (*Schedule, error) {
	ids, parents := grid(counts...)
	leaves := make([]int, len(plan.Events))
	for e, ev := range plan.Events {
		leaves[e] = slices.Index(ids, ev.Worker)
	}
	return BuildSchedule(plan, leaves, parents, uniformStats(len(ids), 4), K, pi, retierEvery)
}

func TestTraceRoundTrip(t *testing.T) {
	in := "# comment\n\njoin worker-0-2 @3\nleave worker-1-1 @7\n"
	p, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 2 {
		t.Fatalf("got %d events", len(p.Events))
	}
	var buf strings.Builder
	if err := WriteTrace(&buf, p); err != nil {
		t.Fatal(err)
	}
	p2, err := ParseTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Signature() != p2.Signature() {
		t.Fatalf("trace round trip changed plan: %q vs %q", p.Signature(), p2.Signature())
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("join:worker-0-2@3, leave:worker-1-1@7")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Events: []Event{
		{Round: 3, Action: ActionJoin, Worker: "worker-0-2"},
		{Round: 7, Action: ActionLeave, Worker: "worker-1-1"},
	}}
	if p.Signature() != want.Signature() {
		t.Fatalf("got %q want %q", p.Signature(), want.Signature())
	}
	if p, err := ParseSpec("  "); err != nil || !p.Empty() {
		t.Fatalf("blank spec: %v %v", p, err)
	}
	for _, bad := range []string{"join worker-0-0@1", "hop:worker-0-0@1", "join:worker-0-0", "join:worker-0-0@x",
		"join:worker-0-1@3x", "join:worker-0-1@+3", "join:worker-0-1@03", "join:worker-0-1@0", "join:@3", "join:worker 0@3"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

func TestAssignDeterministicAndBalanced(t *testing.T) {
	stats := uniformStats(9, 3)
	a, err := Assign(stats, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Assign(stats, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
		counts[a[i]]++
	}
	for l, c := range counts {
		if c != 3 {
			t.Fatalf("edge %d got %d workers, want 3", l, c)
		}
	}
	// With one-hot histograms cycling over 3 classes, same-class workers
	// should co-locate after the seeded first three.
	for i := 3; i < 9; i++ {
		if a[i] != a[i%3] {
			t.Errorf("worker %d (class %d) on edge %d, classmate on %d", i, i%3, a[i], a[i%3])
		}
	}
}

func TestAssignErrors(t *testing.T) {
	stats := uniformStats(2, 2)
	if _, err := Assign(stats, 3); err == nil {
		t.Error("2 workers onto 3 edges should fail")
	}
	if _, err := Assign(stats, 0); err == nil {
		t.Error("0 edges should fail")
	}
}

func buildTestSchedule(t *testing.T, plan Plan, retierEvery int) *Schedule {
	t.Helper()
	s, err := build(plan, 12, 2, retierEvery, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScheduleStaticPlan(t *testing.T) {
	s := buildTestSchedule(t, Plan{}, 0)
	if s.Epochs() != 1 {
		t.Fatalf("static plan should have 1 epoch, got %d", s.Epochs())
	}
	for k := 1; k <= 12; k++ {
		for l := 0; l < 2; l++ {
			if cohort := s.Cohort(k, l); !slices.Equal(cohort, []int{3 * l, 3*l + 1, 3*l + 2}) {
				t.Fatalf("round %d edge %d: natal cohort expected, got %v", k, l, cohort)
			}
		}
	}
	sum := s.Summarize()
	if sum.Joins != 0 || sum.Leaves != 0 || sum.Reassignments != 0 || sum.Retierings != 0 {
		t.Fatalf("static summary has churn: %+v", sum)
	}
}

func TestScheduleJoinLeaveSpans(t *testing.T) {
	// worker-0-2 is leaf 2, worker-1-1 leaf 4.
	plan := Plan{Events: []Event{
		{Round: 3, Action: ActionJoin, Worker: "worker-0-2"},
		{Round: 7, Action: ActionLeave, Worker: "worker-1-1"},
	}}
	s := buildTestSchedule(t, plan, 0)

	if join, last := s.Span(2); join != 3 || last != 12 {
		t.Fatalf("joiner span: %d..%d", join, last)
	}
	if join, last := s.Span(4); join != 1 || last != 7 {
		t.Fatalf("leaver span: %d..%d", join, last)
	}
	if _, ok := s.EdgeOf(2, 2); ok {
		t.Error("joiner live before its join round")
	}
	if l, ok := s.EdgeOf(3, 2); !ok || l != 0 {
		t.Errorf("joiner should be on natal edge 0 at round 3, got %d ok=%v", l, ok)
	}
	if _, ok := s.EdgeOf(8, 4); ok {
		t.Error("leaver live after its leave round")
	}
	if got := s.LiveCount(1); got != 5 {
		t.Errorf("round 1 live = %d, want 5", got)
	}
	if got := s.LiveCount(12); got != 5 {
		t.Errorf("round 12 live = %d, want 5", got)
	}
	if join, last := s.Span(4); join != 1 || last != 7 {
		t.Errorf("the leaver's span is rounds %d..%d, want 1..7", join, last)
	}
	if got := s.Cohort(3, 0); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("round 3 edge 0 cohort = %v", got)
	}
}

func TestScheduleRetierBoundaries(t *testing.T) {
	// pi=2, retierEvery=2 → re-tiering effect at rounds 5 and 9 (k-1 ∈ {4, 8}).
	s := buildTestSchedule(t, Plan{}, 2)
	for k := 2; k <= 12; k++ {
		changedEpoch := s.EpochIndex(k) != s.EpochIndex(k-1)
		wantBoundary := k == 5 || k == 9
		if changedEpoch && !wantBoundary {
			t.Errorf("unexpected epoch boundary at round %d", k)
		}
		if changedEpoch && !s.EpochAt(k).Retier {
			t.Errorf("boundary at %d not marked as re-tiering", k)
		}
	}
	// The cyclic one-hot histograms make the natal split non-coherent, so
	// the first re-tiering must actually move someone.
	if s.Retierings() == 0 {
		t.Fatal("expected at least one effective re-tiering")
	}
	if got := s.Summarize().Reassignments; got == 0 {
		t.Fatal("expected reassignments from re-tiering")
	}
	// Overlap flags the change and stays within (0, 1].
	frac, changed := s.Overlap(5, 0)
	if !changed {
		t.Fatal("Overlap(5, 0) should report a change")
	}
	if frac < 0 || frac > 1 {
		t.Fatalf("overlap fraction %v out of range", frac)
	}
	if _, changed := s.Overlap(4, 0); changed {
		t.Error("Overlap(4, 0) should be unchanged")
	}
}

func TestScheduleCohortCollapse(t *testing.T) {
	plan := Plan{Events: []Event{{Round: 4, Action: ActionLeave, Worker: "worker-1-0"}}}
	_, err := build(plan, 8, 2, 0, 2, 1)
	if err == nil {
		t.Fatal("emptying edge 1 should fail")
	}
	var ce *CohortError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CohortError, got %T: %v", err, err)
	}
	if ce.Round != 5 || ce.Edge != 1 || ce.Live != 0 {
		t.Fatalf("CohortError = %+v", ce)
	}
	if !errors.Is(err, ErrCohortCollapsed) {
		t.Error("CohortError should match ErrCohortCollapsed")
	}
}

// TestCohortCollapseAtRetier: when leaves empty an edge at a re-tiering
// round, fewer workers are live than there are edges, and the error names
// the empty edge and its live count whether or not the round re-tiers.
func TestCohortCollapseAtRetier(t *testing.T) {
	plan := Plan{Events: []Event{
		{Round: 2, Action: ActionLeave, Worker: "worker-0-0"},
		{Round: 2, Action: ActionLeave, Worker: "worker-0-1"},
	}}
	for _, retierEvery := range []int{0, 1} {
		_, err := build(plan, 8, 2, retierEvery, 2, 1)
		var ce *CohortError
		if !errors.As(err, &ce) {
			t.Fatalf("retier every %d: want *CohortError, got %v", retierEvery, err)
		}
		if ce.Round != 3 || ce.Edge != 0 || ce.Live != 0 {
			t.Errorf("retier every %d: CohortError = %+v, want round 3, edge 0, 0 live", retierEvery, ce)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	cases := []Plan{
		{Events: []Event{{Round: 99, Action: ActionJoin, Worker: "worker-0-0"}}},                                                       // round out of range
		{Events: []Event{{Round: 2, Action: ActionJoin, Worker: "worker-5-0"}}},                                                        // unknown worker
		{Events: []Event{{Round: 3, Action: ActionJoin, Worker: "worker-0-0"}, {Round: 2, Action: ActionLeave, Worker: "worker-0-0"}}}, // leave before join
		{Events: []Event{{Round: 2, Action: ActionJoin, Worker: "worker-0-0"}, {Round: 3, Action: ActionJoin, Worker: "worker-0-0"}}},  // double join
	}
	for i, plan := range cases {
		if _, err := build(plan, 8, 2, 0, 2, 2); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

// TestScheduleSignatureStable: a plan's signature — what checkpoint
// fingerprints carry — lists the events in canonical order, the leaves in
// leaf order, whatever order they were given in; equal inputs build equal
// schedules, and the cadence changes the trajectory.
func TestScheduleSignatureStable(t *testing.T) {
	plan := Plan{Events: []Event{
		{Round: 7, Action: ActionLeave, Worker: "worker-1-1"},
		{Round: 3, Action: ActionJoin, Worker: "worker-0-2"},
	}}
	if got, want := plan.Signature(), "join:worker-0-2@3,leave:worker-1-1@7"; got != want {
		t.Fatalf("signature %q, want %q", got, want)
	}
	natural := Plan{Events: []Event{
		{Round: 1, Action: ActionJoin, Worker: "worker-10"},
		{Round: 1, Action: ActionJoin, Worker: "worker-2"},
		{Round: 1, Action: ActionJoin, Worker: "worker-1-10"},
		{Round: 1, Action: ActionJoin, Worker: "worker-1-9"},
	}}
	if got, want := natural.Signature(), "join:worker-1-9@1,join:worker-1-10@1,join:worker-2@1,join:worker-10@1"; got != want {
		t.Fatalf("signature %q, want %q", got, want)
	}
	a := buildTestSchedule(t, plan, 2).Summarize()
	if b := buildTestSchedule(t, plan.Clone(), 2).Summarize(); a != b {
		t.Fatalf("equal inputs built %+v and %+v", a, b)
	}
	if c := buildTestSchedule(t, plan, 1).Summarize(); a == c {
		t.Fatal("a different cadence should change the trajectory")
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	ids, _ := grid(3, 3)
	spec := GenSpec{Seed: 7, Joins: 1, Leaves: 2}
	p1, err := Generate(spec, ids, 12)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Generate(spec, ids, 12)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Signature() != p2.Signature() {
		t.Fatalf("generation not deterministic: %q vs %q", p1.Signature(), p2.Signature())
	}
	if len(p1.Events) != 3 {
		t.Fatalf("want 3 events, got %d (%s)", len(p1.Events), p1.Signature())
	}
	if _, err := build(p1, 12, 2, 2, 3, 3); err != nil {
		t.Fatalf("generated plan must build a schedule: %v", err)
	}
	other, err := Generate(GenSpec{Seed: 8, Joins: 1, Leaves: 2}, ids, 12)
	if err != nil {
		t.Fatal(err)
	}
	if other.Signature() == p1.Signature() {
		t.Log("different seeds produced the same plan (possible but unlikely)")
	}
}
