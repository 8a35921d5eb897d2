package experiment

import (
	"strconv"
	"testing"

	"hieradmo/internal/topology"
)

func TestByzantinePlan(t *testing.T) {
	tree, err := topology.Derive(5, 2, ByzantineTopology(), []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := ByzantinePlan(0, tree, 1); p != nil {
		t.Fatalf("zero fraction produced plan %v", p.Attacks)
	}
	p := ByzantinePlan(0.4, tree, 1)
	if p == nil || len(p.Attacks) != 4 {
		t.Fatalf("40%% of 10 workers should yield 4 attackers, got %+v", p)
	}
	// Round-robin across edges: two attackers per five-worker cohort, so
	// every cohort keeps an honest majority.
	perEdge := map[string]int{}
	for _, a := range p.Attacks {
		if a.Kind != "signflip" || a.From != 1 || a.To != 0 {
			t.Fatalf("attack %+v is not a whole-run sign flip", a)
		}
		perEdge[a.Node[:len("worker-0")]]++
	}
	for edge, n := range perEdge {
		if n != 2 {
			t.Fatalf("edge %s carries %d attackers, want 2", edge, n)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"worker-0-0", "worker-1-0", "worker-0-1", "worker-1-1"} {
		if got := p.Attacks[i].Node; got != want {
			t.Errorf("attacker %d is %s, want %s", i, got, want)
		}
	}
}

func TestRunByzantine(t *testing.T) {
	tbl, err := RunByzantine(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("byzantine table rows = %d, want mean + 4 robust rules", len(tbl.Rows))
	}
	if tbl.Rows[0].Label != "mean" || tbl.Rows[1].Label != "median" {
		t.Fatalf("unexpected row order: %q, %q", tbl.Rows[0].Label, tbl.Rows[1].Label)
	}

	acc := func(row, col int) float64 {
		v, err := strconv.ParseFloat(tbl.Rows[row].Cells[col], 64)
		if err != nil {
			t.Fatalf("row %d cell %d %q: %v", row, col, tbl.Rows[row].Cells[col], err)
		}
		return v
	}
	// At 40% sign-flip attackers the undefended mean must lose materially
	// to the median — that gap is the experiment's whole point.
	meanAt40, medianAt40 := acc(0, 2), acc(1, 2)
	if medianAt40 <= meanAt40 {
		t.Errorf("median at 40%% attackers (%.2f) does not beat mean (%.2f)", medianAt40, meanAt40)
	}
	// The median-referenced cosine filter drops the flipped reports
	// outright, so it must beat the undefended mean at both fractions.
	for col := 1; col <= 2; col++ {
		if cosine, mean := acc(4, col), acc(0, col); cosine <= mean {
			t.Errorf("cosine in column %d (%.2f) does not beat mean (%.2f)", col, cosine, mean)
		}
	}
	// The mean row never rejects. The median defends by rank, not by
	// exclusion, so its rejected count stays 0 on finite attacks; the
	// cosine filter is the rule that must actually reject the sign-flipped
	// reports — they point away from the honest mean by construction.
	if got := tbl.Rows[0].Cells[3]; got != "0" {
		t.Errorf("mean row rejected %s reports, want 0", got)
	}
	if got := tbl.Rows[4].Cells[3]; got == "0" {
		t.Errorf("cosine row rejected nothing at 40%% sign-flip attackers")
	}

	// Same scale, same plan: the experiment itself must be deterministic.
	again, err := RunByzantine(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Rows {
		for j := range tbl.Rows[i].Cells {
			if got, want := again.Rows[i].Cells[j], tbl.Rows[i].Cells[j]; got != want {
				t.Errorf("row %d cell %d: %q != %q across reruns", i, j, got, want)
			}
		}
	}
}
