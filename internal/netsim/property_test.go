package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

// Monotonicity properties of the timing simulation: more bytes, slower
// devices, or more frequent WAN syncs can never make a run faster.

func TestMoreBytesNeverFaster(t *testing.T) {
	env := flatEnv(t, 10, 2, 5)
	f := func(dimRaw uint16) bool {
		dim := 1000 + int(dimRaw)
		small, err := SimulateTree(env, ModelPayload(dim, false), 40)
		if err != nil {
			return false
		}
		big, err := SimulateTree(env, ModelPayload(dim*4, false), 40)
		if err != nil {
			return false
		}
		return big.Total() >= small.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMomentumPayloadNeverFaster(t *testing.T) {
	env := threeTierEnv(t, 10, 2, 7)
	plain, err := SimulateTree(env, ModelPayload(100_000, false), 40)
	if err != nil {
		t.Fatal(err)
	}
	mom, err := SimulateTree(env, ModelPayload(100_000, true), 40)
	if err != nil {
		t.Fatal(err)
	}
	if mom.Total() < plain.Total() {
		t.Errorf("momentum payload %v faster than plain %v", mom.Total(), plain.Total())
	}
}

func TestSlowerDevicesNeverFaster(t *testing.T) {
	fast := threeTierEnv(t, 10, 2, 9)
	slow := threeTierEnv(t, 10, 2, 9)
	for i := range slow.Leaves {
		slow.Leaves[i].Median *= 4
	}
	p := ModelPayload(50_000, false)
	tf, err := SimulateTree(fast, p, 40)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := SimulateTree(slow, p, 40)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Total() <= tf.Total() {
		t.Errorf("4x slower devices finished in %v <= %v", ts.Total(), tf.Total())
	}
}

func TestStragglerDominatesRound(t *testing.T) {
	// A single extremely slow worker must slow the whole synchronous round
	// (the straggler effect the paper's testbed exhibits).
	env := flatEnv(t, 10, 2, 11)
	base, err := SimulateTree(env, ModelPayload(1000, false), 20)
	if err != nil {
		t.Fatal(err)
	}
	straggler := flatEnv(t, 10, 2, 11)
	straggler.Leaves[3].Median = 2 * time.Second
	slow, err := SimulateTree(straggler, ModelPayload(1000, false), 20)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Total() < 10*base.Total() {
		t.Errorf("straggler run %v not dominated by the slow device (base %v)",
			slow.Total(), base.Total())
	}
}

func TestTimelineMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		tl, err := SimulateTree(threeTierEnv(t, 5, 4, seed), ModelPayload(10_000, true), 40)
		if err != nil {
			return false
		}
		for i := 1; i < len(tl); i++ {
			if tl[i] < tl[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
