package robust_test

import (
	"strings"
	"testing"

	"hieradmo/internal/robust"
	"hieradmo/internal/topology"
)

// FuzzParseTierSpecs holds the -aggregator parser to its contract on
// arbitrary selections: a pair of specs or an error, never a panic; every
// accepted spec validates; spelling the accepted pair out canonically as
// "edge=<spec>,cloud=<spec>" parses back to it; and every rule the selection
// names parses to the same spec through a topology level's agg=, the other
// place the rule grammar is read.
func FuzzParseTierSpecs(f *testing.F) {
	for _, sel := range []string{
		"",
		"median",
		"trimmed",
		"edge=median, cloud=trimmed(0.25)",
		"edge=cosine,cloud=clip(0.5)",
		"edge=median,edge=mean",
		"cloud=clip,",
		"tower=median",
		"edge=cosine,cloud=",
		"clip(1e309)",
	} {
		f.Add(sel)
	}
	f.Fuzz(func(t *testing.T, sel string) {
		edge, cloud, err := robust.ParseTierSpecs(sel)
		if err != nil {
			return
		}
		for _, s := range []robust.Spec{edge, cloud} {
			if err := s.Validate(); err != nil {
				t.Fatalf("ParseTierSpecs(%q) accepted %v: %v", sel, s, err)
			}
		}
		canonical := "edge=" + edge.String() + ",cloud=" + cloud.String()
		e2, c2, err := robust.ParseTierSpecs(canonical)
		if err != nil {
			t.Fatalf("canonical form %q of %q: %v", canonical, sel, err)
		}
		if e2 != edge || c2 != cloud {
			t.Fatalf("%q re-parses to %v/%v, want %v/%v", canonical, e2, c2, edge, cloud)
		}
		rules := []string{sel}
		if strings.Contains(sel, "=") {
			rules = rules[:0]
			for _, part := range strings.Split(sel, ",") {
				if _, rule, ok := strings.Cut(part, "="); ok {
					rules = append(rules, rule)
				}
			}
		}
		for _, rule := range rules {
			rule = strings.TrimSpace(rule)
			if rule == "" {
				continue
			}
			want, err := robust.ParseSpec(rule)
			if err != nil {
				t.Fatalf("ParseTierSpecs(%q) accepted rule %q that ParseSpec refuses: %v", sel, rule, err)
			}
			topo, err := topology.Parse("cloud:tau=2,agg=" + rule + "/worker*2")
			if err != nil {
				t.Fatalf("agg=%s, accepted in -aggregator %q, refused by the topology grammar: %v", rule, sel, err)
			}
			if got := topo.Levels[0].Agg; got != want {
				t.Fatalf("agg=%s parses to %v, -aggregator %q to %v", rule, got, sel, want)
			}
		}
	})
}
