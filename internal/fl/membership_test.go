package fl

import "testing"

// TestLeafStatsRawCounts pins LeafStats as it stands: each worker's Hist is
// its shard's raw per-class sample counts, summing to the shard's length (its
// Weight), not a distribution summing to 1. Re-tiering's L1 distances are
// taken over these counts, so normalizing them changes every re-tiered
// assignment and with it the churn goldens: a deliberate change of its own,
// which this test is there to make visible.
func TestLeafStatsRawCounts(t *testing.T) {
	cfg := testConfig(t)
	stats := cfg.LeafStats()
	if len(stats) != cfg.NumWorkers() {
		t.Fatalf("%d stats for %d workers", len(stats), cfg.NumWorkers())
	}
	j := 0
	for _, edge := range cfg.Edges {
		for _, shard := range edge {
			st, counts := stats[j], shard.ClassCounts()
			sum := 0.0
			for k, h := range st.Hist {
				if h != float64(counts[k]) {
					t.Errorf("worker %d: Hist[%d] = %v, the shard holds %d samples of class %d", j, k, h, counts[k], k)
				}
				sum += h
			}
			if sum != float64(shard.Len()) || st.Weight != float64(shard.Len()) {
				t.Errorf("worker %d: Hist sums to %v and Weight is %v; the shard holds %d samples", j, sum, st.Weight, shard.Len())
			}
			j++
		}
	}
}
