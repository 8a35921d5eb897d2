package dataset

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestPartitionIIDCoverage(t *testing.T) {
	ds := testMNIST(t, 103)
	shards, err := PartitionIID(ds, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("got %d shards", len(shards))
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total != 103 {
		t.Errorf("shards hold %d samples, want 103", total)
	}
	// Near-equal sizes: max-min <= 1.
	minLen, maxLen := shards[0].Len(), shards[0].Len()
	for _, s := range shards {
		if s.Len() < minLen {
			minLen = s.Len()
		}
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	if maxLen-minLen > 1 {
		t.Errorf("unbalanced IID shards: min %d max %d", minLen, maxLen)
	}
}

func TestPartitionIIDErrors(t *testing.T) {
	ds := testMNIST(t, 3)
	if _, err := PartitionIID(ds, 0, 1); err == nil {
		t.Error("accepted 0 shards")
	}
	if _, err := PartitionIID(ds, 10, 1); err == nil {
		t.Error("accepted more shards than samples")
	}
}

func TestPartitionClassesLimitsClasses(t *testing.T) {
	ds := testMNIST(t, 1000)
	for _, x := range []int{1, 3, 6, 9} {
		shards, err := PartitionClasses(ds, 4, x, 7)
		if err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		for w, s := range shards {
			if got := s.ClassesPresent(); got > x {
				t.Errorf("x=%d worker %d holds %d classes", x, w, got)
			}
		}
	}
}

func TestPartitionClassesDisjointAndComplete(t *testing.T) {
	ds := testMNIST(t, 600)
	shards, err := PartitionClasses(ds, 6, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Count distinct samples by feature identity: each original index should
	// appear in exactly one shard, so total size matches, given every class
	// is owned (6*3=18 slots >= 10 classes cycles all classes).
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total != 600 {
		t.Errorf("total after partition = %d, want 600", total)
	}
}

func TestPartitionClassesErrors(t *testing.T) {
	ds := testMNIST(t, 100)
	if _, err := PartitionClasses(ds, 0, 3, 1); err == nil {
		t.Error("accepted 0 shards")
	}
	if _, err := PartitionClasses(ds, 2, 0, 1); err == nil {
		t.Error("accepted 0 classes per shard")
	}
	if _, err := PartitionClasses(ds, 2, 11, 1); err == nil {
		t.Error("accepted classesPerShard > NumClasses")
	}
	empty := &Dataset{NumClasses: 10}
	if _, err := PartitionClasses(empty, 2, 3, 1); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty dataset err = %v, want ErrEmpty", err)
	}
}

func TestPartitionClassesDeterministic(t *testing.T) {
	ds := testMNIST(t, 400)
	a, err := PartitionClasses(ds, 4, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionClasses(ds, 4, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	for w := range a {
		if a[w].Len() != b[w].Len() {
			t.Fatalf("worker %d sizes differ across identical seeds", w)
		}
		// Sample ORDER must match too, not just the contents: mini-batch
		// streams index into the shard, so a reordered shard silently changes
		// every batch — and with it any resumed run's trajectory.
		for k := range a[w].Samples {
			if &a[w].Samples[k].X[0] != &b[w].Samples[k].X[0] {
				t.Fatalf("worker %d sample %d differs across identical seeds", w, k)
			}
		}
	}
}

func TestPartitionClassesPropertySizes(t *testing.T) {
	ds := testMNIST(t, 500)
	f := func(shardsRaw, classesRaw uint8, seed uint64) bool {
		numShards := 1 + int(shardsRaw%8)
		classes := 1 + int(classesRaw%10)
		shards, err := PartitionClasses(ds, numShards, classes, seed)
		if err != nil {
			// Tiny/degenerate combinations may legitimately fail with an
			// explanatory error; that is acceptable behaviour.
			return true
		}
		total := 0
		for _, s := range shards {
			if s.Len() == 0 {
				return false
			}
			if s.ClassesPresent() > classes {
				return false
			}
			total += s.Len()
		}
		return total <= ds.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestHierarchy(t *testing.T) {
	ds := testMNIST(t, 160)
	shards, err := PartitionIID(ds, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := Hierarchy(shards, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 || len(edges[0]) != 2 || len(edges[1]) != 2 {
		t.Fatalf("bad hierarchy shape: %d edges", len(edges))
	}
	if edges[1][0] != shards[2] {
		t.Error("hierarchy does not deal shards in order")
	}
}

func TestHierarchyErrors(t *testing.T) {
	ds := testMNIST(t, 40)
	shards, err := PartitionIID(ds, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Hierarchy(shards, []int{2, 3}); err == nil {
		t.Error("accepted mismatched slot count")
	}
	if _, err := Hierarchy(shards, []int{4, 0}); err == nil {
		t.Error("accepted zero-worker edge")
	}
}
