package cluster

import (
	"sync"
	"testing"
	"time"

	"hieradmo/internal/fl"
	"hieradmo/internal/transport"
)

// stepClock is a deterministic Clock: every Now() call advances virtual
// time by a fixed step. Quorum-timing tests drive deadline arithmetic with
// it instead of scaling real sleeps.
type stepClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// TestEdgeStragglerDeadlineUsesInjectedClock: with hour-scale RecvTimeout
// and StragglerDeadline on a fake clock that jumps 90 minutes per reading,
// a quorum-satisfied collect must forfeit its straggler near-instantly in
// real time — proof the deadlines run on Options.Clock, not time.Now.
func TestEdgeStragglerDeadlineUsesInjectedClock(t *testing.T) {
	cfg := buildConfig(t, 61, 0)
	hn, err := fl.NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMemoryNetwork()
	defer net.Close()
	edgeEP, err := net.Endpoint(EdgeID(0))
	if err != nil {
		t.Fatal(err)
	}
	w0, err := net.Endpoint(WorkerID(0, 0))
	if err != nil {
		t.Fatal(err)
	}

	clk := &stepClock{t: time.Unix(0, 0), step: 90 * time.Minute}
	opts := Options{
		MinQuorum:         0.5,
		RecvTimeout:       time.Hour,
		StragglerDeadline: time.Hour,
		Clock:             clk,
	}
	x0 := hn.InitParams()
	e := edgeUnderTest(t, cfg, hn, edgeEP, opts)

	v := x0.Clone()
	msg := transport.Message{
		Kind:    KindTierReport,
		Round:   cfg.Tau,
		Vectors: [][]float64{v, v.Clone(), v.Clone(), v.Clone()},
		Scalars: map[string]float64{ScalarLoss: 1},
	}
	if err := w0.Send(EdgeID(0), msg); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	adopted, reports, idx, err := e.collect(1)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 0 {
		t.Fatalf("adopted = %d, want 0", adopted)
	}
	if len(idx) != 1 || idx[0] != 0 {
		t.Fatalf("reporter indices = %v, want just worker 0", idx)
	}
	if len(reports[0].Vectors) == 0 {
		t.Fatal("worker 0's report was not admitted")
	}
	if real := time.Since(start); real > 5*time.Second {
		t.Fatalf("straggler forfeit took %v of real time; deadlines are not on the injected clock", real)
	}
}
