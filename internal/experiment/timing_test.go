package experiment

import (
	"testing"
	"time"
)

// TestFig2TimingClaim pins the claim Fig. 2(h)/(l) carries, at one seed:
// trained at BenchScale and timed on the testbed, HierAdMo reaches the
// target accuracy, no row reaches it sooner, and every two-tier row — timed
// on the flat view of the tree it ran — is slower.
func TestFig2TimingClaim(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("trains the eleven CNN rows of each setting at bench scale")
	}
	for _, setting := range []TimingSetting{TimingSetting1, TimingSetting2} {
		tbl, err := RunFig2TrainingTime(BenchScale(), setting)
		if err != nil {
			t.Fatal(err)
		}
		reached := make(map[string]time.Duration, len(tbl.Rows))
		for _, r := range tbl.Rows {
			if r.Cells[1] == "not reached" {
				continue
			}
			d, err := time.ParseDuration(r.Cells[1])
			if err != nil {
				t.Fatalf("setting %d, %s: time-to-target %q: %v", setting, r.Label, r.Cells[1], err)
			}
			reached[r.Label] = d
		}
		hier, ok := reached["HierAdMo"]
		if !ok {
			t.Fatalf("setting %d: HierAdMo does not reach the target:\n%s", setting, tbl.Render())
		}
		twoTier := 0
		for _, r := range tbl.Rows {
			d, ok := reached[r.Label]
			if ok && d < hier {
				t.Errorf("setting %d: %s reaches the target in %v, before HierAdMo's %v", setting, r.Label, d, hier)
			}
			if r.Cells[0] == "2-tier" {
				twoTier++
				if ok && d <= hier {
					t.Errorf("setting %d: two-tier %s reaches the target in %v, not slower than HierAdMo's %v", setting, r.Label, d, hier)
				}
			}
		}
		if twoTier == 0 {
			t.Errorf("setting %d: no two-tier row:\n%s", setting, tbl.Render())
		}
	}
}
