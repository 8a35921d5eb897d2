package netsim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hieradmo/internal/rng"
	"hieradmo/internal/topology"
)

func testEnv() *Env {
	return PaperTestbed(4, 42)
}

// threeTierEnv is the paper's client–edge–cloud deployment of two edges of
// two workers over the testbed hardware, edges syncing every τ iterations
// and the cloud every τ·π.
func threeTierEnv(t *testing.T, tau, pi int, seed uint64) *TreeEnv {
	t.Helper()
	return PaperTreeTestbed(simTopo(t, fmt.Sprintf("cloud:tau=%d/edge*2:tau=%d/worker*2", tau*pi, tau)), seed)
}

func TestDeviceSamplePositive(t *testing.T) {
	r := rng.New(1)
	for _, d := range []DeviceProfile{LaptopI3, NubiaZ17s, RealmeGTNeo, RedmiK30Ultra} {
		for i := 0; i < 1000; i++ {
			if s := d.Sample(r); s <= 0 {
				t.Fatalf("%s sampled %v", d.Name, s)
			}
		}
	}
}

func TestDeviceSampleDeterministicWithZeroSigma(t *testing.T) {
	d := DeviceProfile{Name: "fixed", Median: 10 * time.Millisecond}
	r := rng.New(1)
	for i := 0; i < 10; i++ {
		if got := d.Sample(r); got != 10*time.Millisecond {
			t.Fatalf("sigma=0 sample = %v", got)
		}
	}
}

func TestDeviceMedianRoughlyPreserved(t *testing.T) {
	r := rng.New(7)
	d := LaptopI3
	below := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if d.Sample(r) < d.Median {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("fraction below median = %v, want ~0.5", frac)
	}
}

func TestLinkTransfer(t *testing.T) {
	r := rng.New(3)
	l := LinkProfile{Name: "t", RTT: 10 * time.Millisecond, Mbps: 8} // 1 MB/s
	got := l.Transfer(1_000_000, r)
	// 1 MB at 1 MB/s = 1s plus RTT; no jitter configured.
	want := time.Second + 10*time.Millisecond
	if got != want {
		t.Errorf("transfer = %v, want %v", got, want)
	}
	// Zero-bandwidth link degrades to latency only.
	l0 := LinkProfile{RTT: 5 * time.Millisecond}
	if got := l0.Transfer(1000, r); got != 5*time.Millisecond {
		t.Errorf("zero-bandwidth transfer = %v", got)
	}
}

func TestEnvValidate(t *testing.T) {
	env := testEnv()
	if err := env.Validate(); err != nil {
		t.Errorf("valid env rejected: %v", err)
	}
	bad := *env
	bad.Workers = nil
	if err := bad.Validate(); !errors.Is(err, ErrEnv) {
		t.Errorf("err = %v, want ErrEnv", err)
	}
}

func TestSimulateThreeTierShape(t *testing.T) {
	payload := ModelPayload(10_000, true)
	tl, err := SimulateTree(threeTierEnv(t, 10, 2, 42), payload, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 41 {
		t.Fatalf("timeline len = %d, want 41", len(tl))
	}
	if tl[0] != 0 {
		t.Errorf("tl[0] = %v, want 0", tl[0])
	}
	for i := 1; i < len(tl); i++ {
		if tl[i] <= tl[i-1] {
			t.Fatalf("timeline not strictly increasing at %d: %v <= %v", i, tl[i], tl[i-1])
		}
	}
}

func TestSimulateTwoTierShape(t *testing.T) {
	env := testEnv()
	payload := ModelPayload(10_000, false)
	tl, err := SimulateTwoTier(env, payload, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 41 || tl.Total() <= 0 {
		t.Fatalf("bad timeline: len=%d total=%v", len(tl), tl.Total())
	}
}

func TestSimulateErrors(t *testing.T) {
	env := testEnv()
	p := ModelPayload(1000, false)
	three := threeTierEnv(t, 10, 2, 42)
	if _, err := SimulateTree(three, p, 41); !errors.Is(err, topology.ErrMisaligned) {
		t.Errorf("non-multiple T err = %v", err)
	}
	if _, err := SimulateTree(three, p, 0); !errors.Is(err, ErrEnv) {
		t.Errorf("zero T err = %v", err)
	}
	if _, err := SimulateTwoTier(env, p, 40, 0); !errors.Is(err, ErrEnv) {
		t.Errorf("zero period err = %v", err)
	}
	if _, err := SimulateTwoTier(env, p, 41, 20); !errors.Is(err, ErrEnv) {
		t.Errorf("non-multiple T err = %v", err)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	p := ModelPayload(5000, true)
	a, err := SimulateTree(threeTierEnv(t, 10, 2, 42), p, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateTree(threeTierEnv(t, 10, 2, 42), p, 40)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total() != b.Total() {
		t.Errorf("non-deterministic simulation: %v vs %v", a.Total(), b.Total())
	}
}

// TestThreeTierCheaperPerSyncThanTwoTier verifies the architectural claim of
// Fig. 1: with equal aggregation periods (τπ == period), the three-tier
// deployment completes the same number of iterations faster because only
// edges touch the WAN, and only once per cloud interval.
func TestThreeTierCheaperPerSyncThanTwoTier(t *testing.T) {
	const dim = 300_000 // paper-scale CNN parameter count
	p3 := ModelPayload(dim, false)
	p2 := ModelPayload(dim, false)
	three, err := SimulateTree(threeTierEnv(t, 10, 2, 42), p3, 200)
	if err != nil {
		t.Fatal(err)
	}
	two, err := SimulateTwoTier(testEnv(), p2, 200, 20)
	if err != nil {
		t.Fatal(err)
	}
	if three.Total() >= two.Total() {
		t.Errorf("three-tier %v not faster than two-tier %v", three.Total(), two.Total())
	}
}

func TestTimelineAtClamps(t *testing.T) {
	tl := Timeline{0, time.Second, 2 * time.Second}
	if tl.At(-5) != 0 {
		t.Error("negative index not clamped")
	}
	if tl.At(99) != 2*time.Second {
		t.Error("overflow index not clamped")
	}
	var empty Timeline
	if empty.At(3) != 0 {
		t.Error("empty timeline not zero")
	}
}

func TestTimeToAccuracy(t *testing.T) {
	tl := Timeline{0, time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	curve := []CurvePoint{{Iter: 1, Acc: 0.4}, {Iter: 2, Acc: 0.7}, {Iter: 4, Acc: 0.9}}
	d, ok := TimeToAccuracy(tl, curve, 0.65)
	if !ok || d != 2*time.Second {
		t.Errorf("TimeToAccuracy = %v,%v", d, ok)
	}
	if _, ok := TimeToAccuracy(tl, curve, 0.95); ok {
		t.Error("unreachable target reported reached")
	}
}

func TestPaperTestbedCyclesDevices(t *testing.T) {
	env := PaperTestbed(10, 1)
	if len(env.Workers) != 10 {
		t.Fatalf("workers = %d", len(env.Workers))
	}
	if env.Workers[0].Name != env.Workers[4].Name {
		t.Error("device cycling broken")
	}
	if err := env.Validate(); err != nil {
		t.Error(err)
	}
}

func TestModelPayload(t *testing.T) {
	p := ModelPayload(1000, true)
	if p.WorkerUp != 32000 || p.WorkerDown != 16000 {
		t.Errorf("momentum payload = %+v", p)
	}
	p = ModelPayload(1000, false)
	if p.WorkerUp != 8000 || p.WorkerDown != 8000 {
		t.Errorf("plain payload = %+v", p)
	}
}

func TestTimeToAccuracyAtFinalPoint(t *testing.T) {
	tl := Timeline{0, time.Second, 2 * time.Second}
	curve := []CurvePoint{{Iter: 2, Acc: 0.9}}
	d, ok := TimeToAccuracy(tl, curve, 0.9)
	if !ok || d != 2*time.Second {
		t.Errorf("boundary target = %v,%v", d, ok)
	}
	if _, ok := TimeToAccuracy(tl, nil, 0.1); ok {
		t.Error("empty curve reported reached")
	}
}
