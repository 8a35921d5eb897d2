package membership_test

import (
	"strings"
	"testing"

	"hieradmo/internal/membership"
	"hieradmo/internal/topology"
)

// FuzzParseChurnPlan: the inline spec and the trace parsers yield a plan or
// an error, never a panic, and never a round below 1; an accepted plan
// written as a trace parses back to the same signature, and resolving it
// against a small derived tree gives a trajectory or an error.
func FuzzParseChurnPlan(f *testing.F) {
	for _, seed := range []string{
		"join:worker-0-1@3,leave:worker-1-0@7",
		"join:worker-0-1@3x", "join:worker-0-1@+3", "join:worker-0-1@03",
		"leave:worker-0-0@2,leave:worker-0-1@2",
		"join worker-0-1 @3\n# comment\nleave worker-1-1 @8\n",
		"join:edge-0@2", "join:worker-0-0@2,join:worker-0-0@4", ",", "",
	} {
		f.Add(seed)
	}
	tree, err := topology.Derive(2, 2, []int{2, 2}, []int{10, 20, 30, 40})
	if err != nil {
		f.Fatal(err)
	}
	stats := make([]membership.WorkerStat, tree.NumLeaves())
	for j := range stats {
		stats[j] = membership.WorkerStat{Weight: float64(tree.Sizes[2][j]), Hist: []float64{float64(j % 2), float64(1 - j%2)}}
	}
	f.Fuzz(func(t *testing.T, s string) {
		trace := func(s string) (membership.Plan, error) { return membership.ParseTrace(strings.NewReader(s)) }
		for _, parse := range []func(string) (membership.Plan, error){membership.ParseSpec, trace} {
			p, err := parse(s)
			if err != nil {
				continue
			}
			for _, ev := range p.Events {
				if ev.Round < 1 {
					t.Fatalf("%q: accepted round %d", s, ev.Round)
				}
			}
			var buf strings.Builder
			if err := membership.WriteTrace(&buf, p); err != nil {
				t.Fatal(err)
			}
			back, err := trace(buf.String())
			if err != nil || back.Signature() != p.Signature() {
				t.Fatalf("%q: trace %q parses back to %q (%v), want %q", s, buf.String(), back.Signature(), err, p.Signature())
			}
			for _, retier := range []int{0, 1} {
				churned, err := tree.WithMembership(p, stats, 16, retier, membership.MigrateRescale)
				if err == nil && (churned.Membership() == nil) != (p.Empty() && retier == 0) {
					t.Fatalf("%q, retier every %d: membership %v", s, retier, churned.Membership())
				}
			}
		}
	})
}
