package topology

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"hieradmo/internal/membership"
	"hieradmo/internal/robust"
)

// TestDeriveIsTheConfigGrouping: the derived tree is the cloud / edge /
// worker grouping itself — its canonical shape lists ragged cohorts, leaf j
// keeps its (edge, worker) coordinates, and a leaf's global weight is the
// product Dℓ/D · D(i,ℓ)/Dℓ, bit for bit.
func TestDeriveIsTheConfigGrouping(t *testing.T) {
	for _, tc := range []struct {
		cohorts []int
		sizes   []int
		shape   string
	}{
		{[]int{2, 2}, []int{30, 50, 20, 70}, "cloud:tau=6/edge*2:tau=2/worker*2"},
		{[]int{2, 3}, []int{30, 50, 20, 70, 11}, "cloud:tau=6/edge*2:tau=2/worker*[2,3]"},
		{[]int{1}, []int{7}, "cloud:tau=6/edge*1:tau=2/worker*1"},
	} {
		tree, err := Derive(2, 3, tc.cohorts, tc.sizes)
		if err != nil {
			t.Fatal(err)
		}
		if tree.String() != tc.shape || tree.Spec != nil {
			t.Errorf("Derive(%v) shaped %q (spec %v), want %q", tc.cohorts, tree, tree.Spec, tc.shape)
		}
		checkTree(t, tree, tc.sizes)
		total := 0
		for _, n := range tc.sizes {
			total += n
		}
		j := 0
		for l, c := range tc.cohorts {
			edge := 0
			for i := 0; i < c; i++ {
				edge += tc.sizes[j+i]
			}
			for i := 0; i < c; i++ {
				if p, pos := tree.Natal(j); p != l || pos != i {
					t.Errorf("%s: leaf %d natal (%d,%d), want (%d,%d)", tc.shape, j, p, pos, l, i)
				}
				want := float64(edge) / float64(total) * (float64(tc.sizes[j]) / float64(edge))
				if tree.Global[j] != want {
					t.Errorf("%s: leaf %d global weight %v, want %v", tc.shape, j, tree.Global[j], want)
				}
				j++
			}
		}
	}
}

// TestResolveRegroupsLeaves: a spec groups the same leaves under its own
// fanout, so natal coordinates follow the spec, not the configuration.
func TestResolveRegroupsLeaves(t *testing.T) {
	topo, err := Parse("cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2")
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{3, 1, 4, 1, 5, 9, 2, 6}
	tree, err := topo.Resolve(sizes)
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, tree, sizes)
	if p, pos := tree.Natal(5); p != 2 || pos != 1 {
		t.Errorf("leaf 5 natal (%d,%d), want (2,1)", p, pos)
	}
	if got := tree.Sizes[1]; got[0] != 9 || got[1] != 22 {
		t.Errorf("region sizes %v, want [9 22]", got)
	}
	if _, err := topo.Resolve(sizes[:7]); err == nil {
		t.Error("seven shards for eight leaves accepted")
	}
}

// TestWeighRefusesEmptyNode: a membership epoch whose cohort leaves a node
// with no samples has no weights to give it.
func TestWeighRefusesEmptyNode(t *testing.T) {
	tree, err := Derive(1, 2, []int{2, 2}, []int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	kids := append([][][]int(nil), tree.Kids...)
	kids[1] = [][]int{{0, 1, 2, 3}, {}}
	if _, err := tree.Weigh(kids); err == nil {
		t.Error("an edge with an empty cohort was weighed")
	}
}

// TestNodeIDs pins the transport IDs literally — a ragged derived tree keeps
// the cloud / edge-ℓ / worker-ℓ-i names, a spec's tree names every node
// "<level>-<index>" — and holds Lookup to them: it inverts ID and misses
// every name the tree does not mint.
func TestNodeIDs(t *testing.T) {
	derived, err := Derive(2, 2, []int{3, 1}, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse("cloud:tau=8/region*2:tau=4/edge*2:tau=2/worker*2")
	if err != nil {
		t.Fatal(err)
	}
	deep, err := spec.Resolve([]int{1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tree   *Tree
		ids    [][]string
		misses []string
	}{
		{derived, [][]string{
			{"cloud"},
			{"edge-0", "edge-1"},
			{"worker-0-0", "worker-0-1", "worker-0-2", "worker-1-0"},
		}, []string{"", "cloud-0", "edge", "edge-2", "edge-x", "worker-0-3", "worker-1-1", "worker-3", "worker-0--1"}},
		{deep, [][]string{
			{"cloud-0"},
			{"region-0", "region-1"},
			{"edge-0", "edge-1", "edge-2", "edge-3"},
			{"worker-0", "worker-1", "worker-2", "worker-3", "worker-4", "worker-5", "worker-6", "worker-7"},
		}, []string{"", "cloud", "cloud-x", "cloud-1", "worker-8", "tower-0", "worker--1", "worker-0-0", "region-01"}},
	} {
		for i, level := range tc.ids {
			if got := tc.tree.Width(i); got != len(level) {
				t.Fatalf("%s level %d: width %d, want %d", tc.tree, i, got, len(level))
			}
			for j, want := range level {
				if got := tc.tree.ID(i, j); got != want {
					t.Errorf("%s: ID(%d, %d) = %q, want %q", tc.tree, i, j, got, want)
				}
				if li, lj, ok := tc.tree.Lookup(want); !ok || li != i || lj != j {
					t.Errorf("%s: Lookup(%q) = (%d, %d, %v), want (%d, %d)", tc.tree, want, li, lj, ok, i, j)
				}
			}
		}
		for _, id := range tc.misses {
			if li, lj, ok := tc.tree.Lookup(id); ok {
				t.Errorf("%s: Lookup(%q) = (%d, %d), want a miss", tc.tree, id, li, lj)
			}
		}
	}
}

// TestWithAggregators: the run's defaults fill the leaf-parent and root
// levels unless a level's own agg= is robust — an explicit agg=mean takes
// the default, a middle level keeps its own — and the merged tree keeps the
// shape, String and every ID, while the input tree and spec stay untouched.
func TestWithAggregators(t *testing.T) {
	median := robust.Spec{Kind: robust.Median}
	trimmed := robust.Spec{Kind: robust.Trimmed, Trim: 0.2}
	derived, err := Derive(2, 2, []int{2, 3}, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec       string // "" for the derived tree
		leafParent robust.Spec
		want       string // the merged rules, root first; "" for a refusal
	}{
		{"", median, "trimmed(0.2)/median"},
		{"cloud:tau=4/edge*5:tau=2,agg=cosine(0.5)/worker", median, "trimmed(0.2)/cosine(0.5)"},
		{"cloud:tau=4,agg=clip(1)/edge*5:tau=2/worker", median, "clip(1)/median"},
		{"cloud:tau=4,agg=mean/edge*5:tau=2,agg=mean/worker", median, "trimmed(0.2)/median"},
		{"cloud:tau=8/region*5:tau=4,agg=cosine(0)/edge:tau=2/worker", median, "trimmed(0.2)/cosine(0)/median"},
		{"cloud:tau=8/region*5:tau=4/edge:tau=2/worker", median, "trimmed(0.2)/mean/median"},
		// A depth-2 tree's one level is leaf parent and root alike: equal
		// defaults apply, differing ones are refused rather than one dropped.
		{"cloud:tau=4/worker*5", trimmed, "trimmed(0.2)"},
		{"cloud:tau=4/worker*5", median, ""},
		{"cloud:tau=4/worker*5", robust.Spec{}, ""},
		// A default robust.Spec.Validate refuses is refused, naming the tree.
		{"", robust.Spec{Kind: robust.Trimmed, Trim: 0.7}, ""},
	} {
		tree, topo := derived, (*Topology)(nil)
		if tc.spec != "" {
			if topo, err = Parse(tc.spec); err != nil {
				t.Fatal(err)
			}
			if tree, err = topo.Resolve([]int{1, 2, 3, 4, 5}); err != nil {
				t.Fatal(err)
			}
		}
		before, canon := append([]Level(nil), tree.Levels...), tree.String()
		merged, err := tree.WithAggregators(tc.leafParent, trimmed)
		if tc.want == "" {
			if err == nil || merged != nil || !strings.Contains(err.Error(), canon) {
				t.Errorf("%s: defaults %s/%s merged as %v, %v; want a refusal naming the tree", canon, tc.leafParent, trimmed, merged, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", canon, err)
		}
		if got := strings.Join(merged.Aggregators(), "/"); got != tc.want || !merged.Robust() {
			t.Errorf("%s: merged rules %s (robust %v), want %s", canon, got, merged.Robust(), tc.want)
		}
		if merged.String() != canon || tree.String() != canon || merged.Spec != tree.Spec {
			t.Errorf("%s: merged tree renders %q, input now %q", canon, merged, tree)
		}
		for i, lv := range tree.Levels {
			if lv != before[i] || (topo != nil && topo.Levels[i] != before[i]) {
				t.Errorf("%s: merging wrote through to level %d: %+v", canon, i, lv)
			}
		}
		checkTree(t, merged, tree.Sizes[tree.Depth()-1])
		for i := range tree.Levels {
			for j := 0; j < tree.Width(i); j++ {
				if merged.ID(i, j) != tree.ID(i, j) {
					t.Errorf("%s: node (%d, %d) is %q merged, %q before", canon, i, j, merged.ID(i, j), tree.ID(i, j))
				}
			}
		}
	}
	if merged, err := derived.WithAggregators(robust.Spec{}, robust.Spec{}); err != nil || merged.Robust() {
		t.Errorf("mean defaults over a mean tree report a robust level (%v)", err)
	}
	if merged, err := derived.WithAggregators(median, robust.Spec{Kind: robust.Clip}); merged != nil || err == nil {
		t.Errorf("root default clip(0) merged as %v, %v; want a refusal", merged, err)
	}
}

// TestWithAttackPlan: a plan reaches a tree only when every entry names one
// of its training leaves — the derived tree's worker-ℓ-i, a spec's
// worker-<n> — and a refusal names the ID and the tree; a nil or empty plan
// is the tree itself; the plan and the aggregation defaults keep each other
// whichever is merged first; and the input tree is untouched.
func TestWithAttackPlan(t *testing.T) {
	derived, err := Derive(2, 2, []int{2, 3}, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := Parse("cloud:tau=4/edge*5:tau=2/worker")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := topo.Resolve([]int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	parse := func(s string) *robust.AttackPlan {
		plan, err := robust.ParsePlan(s, 5)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	for _, tc := range []struct {
		tree    *Tree
		plan    string
		refused string // the ID the refusal names, "" when accepted
	}{
		{derived, "signflip:worker-0-1@1,noise:worker-1-2@2=0.5", ""},
		{spec, "replay:worker-4@2,scale:worker-0@1-3=10", ""},
		{derived, "signflip:edge-0@1", "edge-0"},
		{derived, "signflip:cloud@1", "cloud"},
		{derived, "signflip:worker-0-0@1,signflip:worker-9-9@1", "worker-9-9"},
		{derived, "signflip:worker-4@1", "worker-4"},
		{spec, "signflip:edge-0@1", "edge-0"},
		{spec, "signflip:cloud-0@1", "cloud-0"},
		{spec, "signflip:worker-0-1@1", "worker-0-1"},
	} {
		plan := parse(tc.plan)
		canon := tc.tree.String()
		got, err := tc.tree.WithAttackPlan(plan)
		if tc.refused != "" {
			if got != nil || err == nil || !strings.Contains(err.Error(), `"`+tc.refused+`"`) || !strings.Contains(err.Error(), canon) {
				t.Errorf("%s on %s = %v, %v; want a refusal naming %q and the tree", tc.plan, canon, got, err, tc.refused)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s on %s: %v", tc.plan, canon, err)
		}
		want := plan.Signature()
		if got == tc.tree || got.AttackPlan().Signature() != want || got.String() != canon {
			t.Errorf("%s on %s: tree %s carries %q", tc.plan, canon, got, got.AttackPlan().Signature())
		}
		for j := 0; j < got.NumLeaves(); j++ {
			if got.ID(got.Depth()-1, j) != tc.tree.ID(tc.tree.Depth()-1, j) {
				t.Errorf("%s: leaf %d is %q, %q before", canon, j, got.ID(got.Depth()-1, j), tc.tree.ID(tc.tree.Depth()-1, j))
			}
		}
		if tc.tree.AttackPlan() != nil {
			t.Errorf("%s: the input tree now carries %q", canon, tc.tree.AttackPlan().Signature())
		}
	}
	// A plan robust.AttackPlan.Validate refuses never reaches the tree, even
	// when it names a training leaf.
	silent := &robust.AttackPlan{Attacks: []robust.Attack{{Node: "worker-0-1", Kind: robust.Noise, From: 1}}}
	if got, err := derived.WithAttackPlan(silent); got != nil || err == nil {
		t.Errorf("noise attack with sigma 0 = %v, %v; want a refusal", got, err)
	}
	for _, empty := range []*robust.AttackPlan{nil, {Seed: 3}} {
		if got, err := derived.WithAttackPlan(empty); got != derived || err != nil {
			t.Errorf("WithAttackPlan(%v) = %p, %v; want the tree itself", empty, got, err)
		}
	}

	median := robust.Spec{Kind: robust.Median}
	plan := parse("signflip:worker-0-1@1")
	merged, err := derived.WithAggregators(median, median)
	if err != nil {
		t.Fatal(err)
	}
	first, err := merged.WithAttackPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	attacked, err := derived.WithAttackPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	second, err := attacked.WithAggregators(median, median)
	if err != nil {
		t.Fatal(err)
	}
	for name, tree := range map[string]*Tree{"aggregators first": first, "plan first": second} {
		rules := tree.Aggregators()
		if got := strings.Join(rules, "/"); got != "median/median" || tree.AttackPlan().Signature() != plan.Signature() {
			t.Errorf("%s: rules %s, plan %q; want median/median and %q", name, got, tree.AttackPlan().Signature(), plan.Signature())
		}
	}
	if rules := derived.Aggregators(); derived.AttackPlan() != nil || strings.Join(rules, "/") != "mean/mean" {
		t.Errorf("the input tree changed: rules %v, plan %v", rules, derived.AttackPlan())
	}
}

// TestWithMembership: a churn plan meets the tree in one place. An entry
// naming anything but a training leaf is refused naming the tree, an empty
// plan without re-tiering is the tree itself, and the merged tree keeps its
// trajectory through the other With… calls, which Scenario names. Each epoch weighs the live
// cohorts, and a leaf off them weighs 0 and does not train.
func TestWithMembership(t *testing.T) {
	tree, err := Derive(2, 2, []int{2, 2}, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]membership.WorkerStat, 4)
	for j := range stats {
		stats[j] = membership.WorkerStat{Weight: float64(j + 1), Hist: []float64{1}}
	}
	leave := func(id string) membership.Plan {
		return membership.Plan{Events: []membership.Event{{Round: 2, Action: membership.ActionLeave, Worker: id}}}
	}
	if got, err := tree.WithMembership(membership.Plan{}, stats, 16, 0, membership.MigrateZero); err != nil || got != tree {
		t.Fatalf("an empty plan gave %v, %v, want the tree itself", got, err)
	}
	if got, err := tree.WithMembership(membership.Plan{}, stats, 16, 0, membership.MigrateRescale+1); got != nil || err == nil {
		t.Errorf("an unknown migration policy gave %v, %v, want a refusal", got, err)
	}
	for _, id := range []string{"worker-2-0", "worker-1", "edge-0", "cloud"} {
		_, err := tree.WithMembership(leave(id), stats, 16, 0, membership.MigrateZero)
		if want := `"` + id + `", not a training leaf of the tree ` + tree.String(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("plan naming %s: %v, want an error containing %s", id, err, want)
		}
	}

	churned, err := tree.WithMembership(leave("worker-0-1"), stats, 16, 0, membership.MigrateZero)
	if err != nil {
		t.Fatal(err)
	}
	m := churned.Membership()
	if m == nil || m.Token != "churn=leave:worker-0-1@2 retier=0 migrate=zero" || churned.String() != tree.String() {
		t.Fatalf("membership %+v on %s", m, churned)
	}
	// The epochs cover the horizon they were scheduled for and no other;
	// the static tree runs any horizon its root period tiles.
	if err := churned.AlignsWith(16); err != nil {
		t.Errorf("AlignsWith(16) on the epochs of T=16: %v", err)
	}
	if err := churned.AlignsWith(8); !errors.Is(err, ErrMisaligned) || tree.AlignsWith(8) != nil {
		t.Errorf("AlignsWith(8) = %v on the epochs of T=16, %v on the static tree; want ErrMisaligned, nil", err, tree.AlignsWith(8))
	}
	attack, err := robust.ParsePlan("signflip:worker-0-0@1", 1)
	if err != nil {
		t.Fatal(err)
	}
	attacked, err := churned.WithAttackPlan(attack)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := churned.WithAggregators(robust.Spec{Kind: robust.Median}, robust.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Membership() != nil || attacked.Membership() != m || merged.Membership() != m {
		t.Error("the input tree gained the trajectory, or WithAttackPlan / WithAggregators dropped it")
	}
	// Scenario names the robust rules, the plan and the trajectory, in that
	// order, and nothing for a plain static tree.
	all, err := attacked.WithAggregators(robust.Spec{Kind: robust.Median}, robust.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tree *Tree
		want string
	}{
		{tree, ""},
		{churned, " churn=leave:worker-0-1@2 retier=0 migrate=zero"},
		{merged, " agg=mean/median churn=leave:worker-0-1@2 retier=0 migrate=zero"},
		{all, " agg=mean/median attack=seed=1 signflip:worker-0-0@1 churn=leave:worker-0-1@2 retier=0 migrate=zero"},
	} {
		if got := c.tree.Scenario(); got != c.want {
			t.Errorf("Scenario() = %q, want %q", got, c.want)
		}
	}
	// Round 2 is the leaver's last; from round 3 (iterations 5–6) edge 0
	// holds leaf 0 alone and the root weighs the edges 1 : 7.
	if kids, w := churned.Children(1, 0, 2); len(kids) != 2 || len(w) != 2 {
		t.Errorf("round 2: edge 0 children %v %v, want both", kids, w)
	}
	if kids, w := churned.Children(1, 0, 3); len(kids) != 1 || kids[0] != 0 || w[0] != 1 {
		t.Errorf("round 3: edge 0 children %v %v, want leaf 0 at weight 1", kids, w)
	}
	if _, w := churned.Children(0, 0, 2); w[0] != 1.0/8 || w[1] != 7.0/8 {
		t.Errorf("root sync 2 weights %v, want [1/8 7/8]", w)
	}
	if global, live := churned.Live(5); len(live) != 3 || live[1] != 2 || global[1] != 0 || global[0] != 1.0/8 {
		t.Errorf("iteration 5: live %v, weights %v", live, global)
	}
	if _, live := churned.Live(4); len(live) != 4 {
		t.Errorf("iteration 4: live %v, want every leaf", live)
	}
	if carry, changed := churned.Carry(0, 3); carry != 0 || !changed {
		t.Errorf("edge 0 round 3: carry %v, changed %v; want 0 under MigrateZero", carry, changed)
	}
	if carry, changed := churned.Carry(1, 3); carry != 1 || changed {
		t.Errorf("edge 1 round 3: carry %v, changed %v; want an unchanged cohort", carry, changed)
	}
	if churned.Fanout(1, 0) != 2 || churned.Epoch(0, 2) != 1 {
		t.Errorf("fanout %d, root round 2 in epoch %d", churned.Fanout(1, 0), churned.Epoch(0, 2))
	}

	// On a depth-2 tree the root is the leaf parent: its cohort's weights
	// are the leaves' global weights, scattered over the leaf order.
	spec, err := Parse("cloud:tau=2/worker*4")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := spec.Resolve([]int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if flat, err = flat.WithMembership(leave("worker-1"), stats, 16, 0, membership.MigrateZero); err != nil {
		t.Fatal(err)
	}
	if global, live := flat.Live(5); len(live) != 3 || global[1] != 0 || global[0] != 1.0/8 || global[3] != 4.0/8 {
		t.Errorf("depth 2, iteration 5: live %v, weights %v", live, global)
	}
}

// TestTreeFlat: the flat view is the root alone over every leaf at the
// root's period, each leaf weighted by its global weight bit for bit, and it
// keeps every leaf's ID and natal coordinates and the attack plan while its
// String names a shape of its own; a robust root rule survives, and what the
// view has no level for is refused with ErrFlat.
func TestTreeFlat(t *testing.T) {
	// Three of these leaves' path products Dℓ/D · D(i,ℓ)/Dℓ differ in the
	// last bit from D(i)/D, which a re-derived root weight would give.
	derived, err := Derive(2, 3, []int{3, 1, 2}, []int{62, 65, 88, 53, 31, 17})
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(spec string, leaves int) *Tree {
		t.Helper()
		topo, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		sizes := make([]int, leaves)
		for j := range sizes {
			sizes[j] = 3 + 5*j%7
		}
		tree, err := topo.Resolve(sizes)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	spec := resolve("cloud:tau=8,agg=clip(2)/region*2:tau=4/edge*2:tau=2/worker*2", 8)
	plans := map[*Tree]string{derived: "signflip:worker-0-2@1,noise:worker-2-1@2=0.5", spec: "scale:worker-5@1-3=10"}
	for _, tree := range []*Tree{derived, spec} {
		plan, err := robust.ParsePlan(plans[tree], 5)
		if err != nil {
			t.Fatal(err)
		}
		attacked, err := tree.WithAttackPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := attacked.Flat()
		if err != nil {
			t.Fatalf("%s: %v", tree, err)
		}
		leaf, n := tree.Depth()-1, tree.NumLeaves()
		if flat.Depth() != 2 || flat.Width(0) != 1 || flat.NumLeaves() != n || len(flat.Kids[0][0]) != n ||
			flat.Levels[0] != tree.Levels[0] || flat.Levels[1] != tree.Levels[leaf] {
			t.Fatalf("%s flattened to levels %+v with %d leaves under %d roots", tree, flat.Levels, flat.NumLeaves(), flat.Width(0))
		}
		if flat.String() == tree.String() || !flat.Flattened() || tree.Flattened() {
			t.Errorf("%s: the flat view is named %q (flattened %v)", tree, flat, flat.Flattened())
		}
		if flat.AttackPlan() != plan || flat.Spec != tree.Spec || flat.Sizes[0][0] != tree.Sizes[0][0] {
			t.Errorf("%s: the flat view dropped the plan, the spec or the sample count", tree)
		}
		if err := flat.AlignsWith(tree.Levels[0].Tau); err != nil {
			t.Errorf("%s: the flat view does not run one root period: %v", tree, err)
		}
		var sum float64
		for j, w := range flat.Weights[0][0] {
			if flat.Kids[0][0][j] != j || flat.Parent[1][j] != 0 {
				t.Errorf("%s: the root's child %d is %d, with parent %d", tree, j, flat.Kids[0][0][j], flat.Parent[1][j])
			}
			if math.Float64bits(w) != math.Float64bits(tree.Global[j]) || flat.Global[j] != tree.Global[j] {
				t.Errorf("%s: leaf %d weighs %v flat, %v globally", tree, j, w, tree.Global[j])
			}
			sum += w
			p, pos := tree.Natal(j)
			if fp, fpos := flat.Natal(j); fp != p || fpos != pos {
				t.Errorf("%s: leaf %d natal (%d,%d) flat, (%d,%d) in the tree", tree, j, fp, fpos, p, pos)
			}
			if id := tree.ID(leaf, j); flat.ID(1, j) != id {
				t.Errorf("%s: leaf %d is %q flat, %q in the tree", tree, j, flat.ID(1, j), id)
			} else if lvl, idx, ok := flat.Lookup(id); !ok || lvl != 1 || idx != j {
				t.Errorf("%s: flat Lookup(%q) = (%d, %d, %v)", tree, id, lvl, idx, ok)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: the root's weights sum to %v", tree, sum)
		}
		if flat.ID(0, 0) != tree.ID(0, 0) {
			t.Errorf("%s: the root is %q flat, %q in the tree", tree, flat.ID(0, 0), tree.ID(0, 0))
		}
	}

	// What the flat view has no level for: a robust rule below the root,
	// γ / adapt attributes at any level, membership epochs.
	median := robust.Spec{Kind: robust.Median}
	robustEdges, err := derived.WithAggregators(median, robust.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]membership.WorkerStat, derived.NumLeaves())
	for j := range stats {
		stats[j] = membership.WorkerStat{Weight: 1, Hist: []float64{1}}
	}
	churned, err := derived.WithMembership(membership.Plan{Events: []membership.Event{
		{Round: 2, Action: membership.ActionLeave, Worker: "worker-0-1"}}}, stats, 12, 0, membership.MigrateZero)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tree *Tree
		want string
	}{
		{robustEdges, `"edge" to aggregate with agg=median`},
		{resolve("cloud:tau=8/edge*2:tau=2,gamma=0.5/worker*2", 4), `attributes of level "edge"`},
		{resolve("cloud:tau=8/edge*2:tau=2,adapt=true/worker*2", 4), `attributes of level "edge"`},
		{resolve("cloud:tau=8,gamma=0.5/edge*2:tau=2/worker*2", 4), `attributes of level "cloud"`},
		{resolve("cloud:tau=4,gamma=0.5/worker*4", 4), `attributes of level "cloud"`},
		{churned, "membership epochs"},
	} {
		flat, err := tc.tree.Flat()
		if flat != nil || !errors.Is(err, ErrFlat) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Flat() = %v, %v; want ErrFlat naming %s", tc.tree, flat, err, tc.want)
		}
	}

	// A robust root rule is the flat view's own, and a two-level tree is its
	// own flat view.
	robustRoot, err := derived.WithAggregators(robust.Spec{}, median)
	if err != nil {
		t.Fatal(err)
	}
	if flat, err := robustRoot.Flat(); err != nil || flat.Levels[0].Agg != median {
		t.Errorf("flattening a median root: %v, %v", flat, err)
	}
	two := resolve("cloud:tau=4/worker*4", 4)
	if flat, err := two.Flat(); err != nil || flat != two {
		t.Errorf("a two-level tree flattened to %v, %v; want itself", flat, err)
	}
}

// TestTreeHandoff: a node's hand-off of its round-k aggregate goes to the
// cohort of round k+1 (of the last round, after it). On a static tree that
// is the natal cohort, with no newcomer or retiree and no allocation; under
// membership a leaf parent admits a late joiner and a leaf a re-tiering
// moves in (flagged moved), and retires a planned leaver after its last
// round, unless that round is the run's. Retier names a re-tiering's moves
// at its epoch's first round alone. The tree is 2×2 under a root syncing
// every second leaf-parent round, T = 16: eight leaf-parent rounds.
func TestTreeHandoff(t *testing.T) {
	tree, err := Derive(2, 2, []int{2, 2}, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Leaves 0 and 2 hold one class, 1 and 3 the other, so a re-tiering
	// regroups them by class: leaf 1 moves to edge 1, leaf 2 to edge 0.
	stats := make([]membership.WorkerStat, 4)
	for j := range stats {
		stats[j] = membership.WorkerStat{Weight: float64(j + 1), Hist: []float64{float64(1 - j%2), float64(j % 2)}}
	}
	churn := func(spec string, retier int) *Tree {
		t.Helper()
		var plan membership.Plan
		if spec != "" {
			if plan, err = membership.ParseSpec(spec); err != nil {
				t.Fatal(err)
			}
		}
		churned, err := tree.WithMembership(plan, stats, 16, retier, membership.MigrateZero)
		if err != nil {
			t.Fatal(err)
		}
		return churned
	}
	joined, left, leftLast, retiered := churn("join:worker-0-1@3", 0), churn("leave:worker-1-0@5", 0),
		churn("leave:worker-1-0@8", 0), churn("", 1)
	// Leaf 1 joins edge 0 at round 2 and the re-tiering moves it on at 3.
	joinedMoved := churn("join:worker-0-1@2", 1)
	for _, row := range []struct {
		name      string
		tree      *Tree
		lvl, j, k int
		cohort    []int
		joins     []int
		moved     []bool
		retires   []int
	}{
		{"static leaf parent", tree, 1, 1, 3, []int{2, 3}, nil, nil, nil},
		{"static root", tree, 0, 0, 4, []int{0, 1}, nil, nil, nil},
		{"late join admitted after round 2", joined, 1, 0, 2, []int{0, 1}, []int{1}, []bool{false}, nil},
		{"late join, the other cohort unchanged", joined, 1, 1, 2, []int{2, 3}, nil, nil, nil},
		{"late join, before round 2", joined, 1, 0, 1, []int{0}, nil, nil, nil},
		{"late join, a member after", joined, 1, 0, 3, []int{0, 1}, nil, nil, nil},
		{"late join, the root's cohort", joined, 0, 0, 1, []int{0, 1}, nil, nil, nil},
		{"planned leave retired after round 5", left, 1, 1, 5, []int{3}, nil, nil, []int{2}},
		{"planned leave, before its last round", left, 1, 1, 4, []int{2, 3}, nil, nil, nil},
		{"leave at the run's last round", leftLast, 1, 1, 8, []int{2, 3}, nil, nil, nil},
		{"re-tiering moves leaf 2 in", retiered, 1, 0, 2, []int{0, 2}, []int{2}, []bool{true}, nil},
		{"re-tiering moves leaf 1 in", retiered, 1, 1, 2, []int{1, 3}, []int{1}, []bool{true}, nil},
		{"re-tiering, the moved cohorts after", retiered, 1, 0, 3, []int{0, 2}, nil, nil, nil},
		{"joined at round 2, moved at 3", joinedMoved, 1, 1, 2, []int{1, 3}, []int{1}, []bool{true}, nil},
		{"joined at round 2, admitted after round 1", joinedMoved, 1, 0, 1, []int{0, 1}, []int{1}, []bool{false}, nil},
		{"the last round hands off to its own cohort", joined, 1, 0, 8, []int{0, 1}, nil, nil, nil},
		{"the root's last round", retiered, 0, 0, 4, []int{0, 1}, nil, nil, nil},
	} {
		h := row.tree.Handoff(row.lvl, row.j, row.k)
		if !slices.Equal(h.Cohort, row.cohort) || !slices.Equal(h.Joins, row.joins) || !slices.Equal(h.Moved, row.moved) ||
			!slices.Equal(h.Retires, row.retires) {
			t.Errorf("%s: Handoff(%d, %d, %d) = %+v, want cohort %v, joins %v moved %v, retires %v",
				row.name, row.lvl, row.j, row.k, h, row.cohort, row.joins, row.moved, row.retires)
		}
		for _, c := range row.cohort {
			if h.Joined(c) != slices.Contains(row.joins, c) {
				t.Errorf("%s: Joined(%d) = %v", row.name, c, h.Joined(c))
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for k := 1; k <= 8; k++ {
			tree.Handoff(1, k%2, k)
			tree.Handoff(0, 0, k/2)
		}
	}); allocs != 0 {
		t.Errorf("a static tree's hand-offs allocate %v times", allocs)
	}

	// The re-tiering takes effect at round 3, after the first root sync;
	// the ones due at rounds 5 and 7 change nothing, so open no epoch.
	for r := 0; r <= 9; r++ {
		moves, ok := retiered.Retier(r)
		want := r == 3
		if ok != want || want && !slices.Equal(moves, []Move{{Leaf: 1, To: 1}, {Leaf: 2, To: 0}}) || !want && moves != nil {
			t.Errorf("Retier(%d) = %v, %v; want the two moves at round 3 alone", r, moves, ok)
		}
		for _, other := range []*Tree{tree, joined, left} {
			if moves, ok := other.Retier(r); ok || moves != nil {
				t.Errorf("%s without re-tiering: Retier(%d) = %v, %v", other.Scenario(), r, moves, ok)
			}
		}
	}
}
