package telemetry

import (
	"bytes"
	"os"
	"testing"
)

// readTraceFile is a test helper shared across files in this package.
func readTraceFile(t *testing.T, path string) ([]TraceEvent, error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

func TestNilSinkIsFullyFunctional(t *testing.T) {
	var sink *Sink
	if sink.Tracing() {
		t.Error("nil sink claims to be tracing")
	}
	if sink.Registry() != nil || sink.Tracer() != nil {
		t.Error("nil sink leaked a registry or tracer")
	}
	m := sink.M()
	if m == nil {
		t.Fatal("nil sink M() returned nil")
	}
	m.WorkerSteps.Inc() // every instrument of the no-op set must be callable
	m.GammaEdge.Set(1)
	m.IterationSeconds.Observe(0.1)
	sink.Emit("ignored", Int("t", 1))
	if sink.M() != m {
		t.Error("nil sink M() is not the shared no-op set")
	}
}

// TestNilSinkIsAllocationFree pins the tentpole's hot-loop contract: with
// telemetry off, the instrument calls inlined into training loops allocate
// nothing, and neither does recording a fact on a ledger once its tally
// holds the fact's level, attack kind and missed round.
func TestNilSinkIsAllocationFree(t *testing.T) {
	var sink *Sink
	ledger := NewLedger(sink, 3)
	facts := func() {
		ledger.RobustReject("edge-0", "edge", 1, 4, "worker-0-1")
		ledger.RobustClip("cloud", "cloud", 0, 8, "edge-1", 2.5)
		ledger.QuorumMiss("edge", 1, 6, 1)
		ledger.StaleMessage("worker-1-0", 2)
		ledger.DuplicateReport("edge-1", 1)
		ledger.Timeout("edge-0", 1)
		ledger.FastForward("worker-0-0", 2, 4, 8)
		ledger.AttackInject("worker-0-1", 2, "signflip")
		ledger.MembershipJoin("worker-0-1", 4, false)
		ledger.MembershipJoin("worker-1-1", 8, true)
		ledger.MembershipLeave("worker-1-0", 12)
		ledger.MembershipRetier(8, 2)
		ledger.GammaMigration("edge-0", 10, "zero", 0)
	}
	facts() // the tally's first facts allocate it
	for _, row := range []struct {
		name string
		run  func()
	}{
		{"instruments", func() {
			m := sink.M()
			m.WorkerSteps.Inc()
			m.GradClips.Add(2)
			m.GammaEdge.Set(0.5)
			m.IterationSeconds.Observe(0.01)
			if sink.Tracing() {
				t.Fatal("unreachable")
			}
		}},
		{"ledger", facts},
	} {
		if allocs := testing.AllocsPerRun(1000, row.run); allocs != 0 {
			t.Errorf("nil-sink %s path allocates %v per call, want 0", row.name, allocs)
		}
	}
}

// TestLiveMetricsAreAllocationFree: even with telemetry ON, counters, gauges
// and histogram observes stay allocation-free — only trace events (off the
// per-iteration path) may allocate.
func TestLiveMetricsAreAllocationFree(t *testing.T) {
	sink := New(nil, nil)
	if allocs := testing.AllocsPerRun(1000, func() {
		m := sink.M()
		m.WorkerSteps.Inc()
		m.GammaEdge.Set(0.5)
		m.IterationSeconds.Observe(0.01)
	}); allocs != 0 {
		t.Errorf("live metric path allocates %v per call, want 0", allocs)
	}
}

func TestSinkEmitAndSharedRegistry(t *testing.T) {
	var buf bytes.Buffer
	sink := New(nil, NewTracer(&buf))
	if !sink.Tracing() {
		t.Fatal("sink with a tracer is not Tracing")
	}
	sink.Emit("hello", Int("t", 3))
	if err := sink.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), `{"seq":1,"ev":"hello","t":3}`+"\n"; got != want {
		t.Errorf("Emit through sink wrote %q, want %q", got, want)
	}

	// Two sinks over one registry share instruments (idempotent names).
	reg := NewRegistry()
	a, b := New(reg, nil), New(reg, nil)
	a.M().WorkerSteps.Inc()
	b.M().WorkerSteps.Inc()
	if got := reg.Counter("fl_worker_steps_total").Value(); got != 2 {
		t.Errorf("shared counter = %d, want 2", got)
	}
}

func TestSetup(t *testing.T) {
	sink, addr, cleanup, err := Setup("", "")
	if err != nil || sink != nil || addr != "" {
		t.Fatalf("empty Setup = (%v, %q, _, %v), want nil sink", sink, addr, err)
	}
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/out.trace"
	sink, addr, cleanup, err = Setup(path, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" || addr == "127.0.0.1:0" {
		t.Errorf("Setup did not report the bound address: %q", addr)
	}
	sink.Emit("x", Int("t", 1))
	if err := cleanup(); err != nil {
		t.Fatal(err)
	}
	events, err := readTraceFile(t, path)
	if err != nil || len(events) != 1 {
		t.Errorf("trace file after cleanup: events=%v err=%v", events, err)
	}
}

// Benchmarks backing the "allocation-neutral" acceptance criterion: compare
// the nil-sink instrumented path against raw arithmetic.
func BenchmarkNilSinkHotLoop(b *testing.B) {
	var sink *Sink
	for i := 0; i < b.N; i++ {
		m := sink.M()
		m.WorkerSteps.Inc()
		m.IterationSeconds.Observe(0.01)
		if sink.Tracing() {
			b.Fatal("unreachable")
		}
	}
}

func BenchmarkLiveSinkHotLoop(b *testing.B) {
	sink := New(nil, nil)
	for i := 0; i < b.N; i++ {
		m := sink.M()
		m.WorkerSteps.Inc()
		m.IterationSeconds.Observe(0.01)
	}
}
