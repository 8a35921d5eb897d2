package cluster

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/model"
	"hieradmo/internal/rng"
	"hieradmo/internal/tensor"
	"hieradmo/internal/transport"
)

// scriptedReport is one report a scripted parent received: its round, its
// loss and eq. (6) term, and copies of its [y, x].
type scriptedReport struct {
	round     int
	loss, cos float64
	y, x      []float64
}

// leafScript runs worker-0-0 alone (RunNode) against a parent the test
// plays on edge-0's endpoint. respond decides what the parent does with
// each report: answer with the update of round update (0: send nothing, so
// the leaf rides out or waits), or stop the run through the interrupt
// channel instead. An update's [y, x] is a fixed function of the report it
// answers, so two runs that send equal reports receive equal updates.
type leafScript struct {
	respond func(round int) (update int, stop bool)
	// trapStep, when positive, fires the interrupt during the leaf's
	// trapStep-th gradient: the leaf sees it at the top of the next
	// iteration, one step into whatever interval that step began.
	trapStep int
}

// stepTrap counts a model's gradient calls and runs fire on the at-th.
type stepTrap struct {
	model.Model
	calls, at int
	fire      func()
}

func (m *stepTrap) LossGrad(params tensor.Vector, batch []dataset.Sample, grad tensor.Vector) (float64, error) {
	m.calls++
	if m.calls == m.at {
		m.fire()
	}
	return m.Model.LossGrad(params, batch, grad)
}

// run plays the script once and returns every report received and the
// leaf's exit error.
func (s leafScript) run(t *testing.T, opts Options) ([]scriptedReport, error) {
	t.Helper()
	cfg := buildConfig(t, 101, 0)
	cfg.T = 16
	interrupt := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(interrupt) }) }
	cfg.Model = &stepTrap{Model: cfg.Model, at: s.trapStep, fire: stop}
	opts.Interrupt = interrupt

	net := transport.NewMemoryNetwork()
	leafEP, err := net.Endpoint(WorkerID(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	parentEP, err := net.Endpoint(EdgeID(0))
	if err != nil {
		t.Fatal(err)
	}
	defer parentEP.Close()
	done := make(chan error, 1)
	go func() {
		_, err := RunNode(cfg, leafEP, opts)
		leafEP.Close()
		done <- err
	}()
	var reps []scriptedReport
	for {
		select {
		case err := <-done:
			return reps, err
		default:
		}
		msg, err := parentEP.RecvTimeout(10 * time.Millisecond)
		if errors.Is(err, transport.ErrTimeout) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if msg.Kind != KindTierReport || len(msg.Vectors) != 2 {
			t.Fatalf("parent got %+v, want a [y, x] report", msg)
		}
		rep := scriptedReport{round: msg.Round, loss: msg.Scalars[ScalarLoss], cos: msg.Scalars[ScalarCos],
			y: append([]float64(nil), msg.Vectors[0]...), x: append([]float64(nil), msg.Vectors[1]...)}
		msg.Release()
		reps = append(reps, rep)
		update, halt := s.respond(rep.round)
		if halt {
			stop()
			continue
		}
		if update == 0 {
			continue
		}
		y, x := make([]float64, len(rep.y)), make([]float64, len(rep.x))
		for i := range y {
			y[i] = 0.5 * rep.y[i]
			x[i] = rep.x[i] - 0.01*rep.y[i]
		}
		if err := parentEP.Send(WorkerID(0, 0), transport.Message{
			Kind: KindTierUpdate, Round: update, Vectors: [][]float64{y, x},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// newestLeafSlot decodes worker-0-0's slot files in dir and returns the
// newest generation.
func newestLeafSlot(t *testing.T, dir string) *checkpoint.State {
	t.Helper()
	var newest *checkpoint.State
	for slot := 0; slot < 2; slot++ {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("%s-slot%d.ckpt", WorkerID(0, 0), slot)))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		st, err := checkpoint.Read(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if newest == nil || st.Seq > newest.Seq {
			newest = st
		}
	}
	if newest == nil {
		t.Fatalf("no snapshot of %s in %s", WorkerID(0, 0), dir)
	}
	return newest
}

// sameReport compares two reports bit for bit.
func sameReport(a, b scriptedReport) bool {
	if a.round != b.round || math.Float64bits(a.loss) != math.Float64bits(b.loss) ||
		math.Float64bits(a.cos) != math.Float64bits(b.cos) || len(a.y) != len(b.y) || len(a.x) != len(b.x) {
		return false
	}
	for i := range a.y {
		if math.Float64bits(a.y[i]) != math.Float64bits(b.y[i]) || math.Float64bits(a.x[i]) != math.Float64bits(b.x[i]) {
			return false
		}
	}
	return true
}

// TestSettledLeafSnapshotHoldsNoInterval: a leaf's save after an adopted
// update persists no interval state. Read back with checkpoint.Read, the
// accumulator entry is empty, while the model and momentum are there in
// full.
func TestSettledLeafSnapshotHoldsNoInterval(t *testing.T) {
	dir := t.TempDir()
	script := leafScript{respond: func(round int) (int, bool) { return round, false }}
	if _, err := script.run(t, Options{Adaptive: true, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	st := newestLeafSlot(t, dir)
	if st.Seq != 16 {
		t.Fatalf("newest snapshot is of t=%d, want the final boundary 16", st.Seq)
	}
	if v, ok := st.Vectors["dyn/interval"]; !ok || len(v) != 0 {
		t.Errorf("settled snapshot: dyn/interval present=%v with %d values, want present and empty", ok, len(v))
	}
	for _, name := range []string{"x", "y"} {
		if len(st.Vectors[name]) == 0 {
			t.Errorf("settled snapshot lacks %s", name)
		}
	}
	for _, name := range []string{"gradSum", "ySum"} {
		if _, ok := st.Vectors[name]; ok {
			t.Errorf("settled snapshot still carries the separate vector %s", name)
		}
	}
}

// TestFingerprintPinned holds a leaf snapshot's fingerprint to the text
// every snapshot family on disk was written with: the algorithm segment in
// clear ("signal=1" names the eq. (6) statistic and stays although no other
// is left), and the whole string, layout tokens included, by its SHA-256.
func TestFingerprintPinned(t *testing.T) {
	for _, row := range []struct {
		adaptive bool
		segment  string
		digest   string
	}{
		{true, " adaptive=true signal=1 ceiling=0.99 topology=",
			"01c2df64d5fae7d04e8b1beb37afaab8be853a4f1071f563483e79a15242831b"},
		{false, " adaptive=false signal=1 ceiling=0.99 topology=",
			"23521a6629b91951b3073549864f6bbfd01d248a950508b8b0505608f458015e"},
	} {
		dir := t.TempDir()
		script := leafScript{respond: func(round int) (int, bool) { return round, false }}
		if _, err := script.run(t, Options{Adaptive: row.adaptive, CheckpointDir: dir}); err != nil {
			t.Fatal(err)
		}
		fp := newestLeafSlot(t, dir).Fingerprint
		cfg := buildConfig(t, 101, 0)
		cfg.T = 16
		if !strings.HasPrefix(fp, cfg.Fingerprint("cluster/tier")+row.segment) {
			t.Errorf("fingerprint %q does not continue the config's with %q", fp, row.segment)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fp))); got != row.digest {
			t.Errorf("adaptive=%v: fingerprint %q has SHA-256 %s, want %s", row.adaptive, fp, got, row.digest)
		}
	}
}

// TestUnsettledLeafResume: the saves that keep interval state — an
// interrupt mid-interval, a boundary the leaf trains through because an
// adopted update already covers it (t ≤ syncedThrough), and a boundary
// ridden out in quorum mode after the update was dropped — resume to the
// uninterrupted leaf bit for bit: every report after the snapshot, its
// eq. (6) term included.
func TestUnsettledLeafResume(t *testing.T) {
	normal := func(round int) (int, bool) { return round, false }
	for _, row := range []struct {
		name string
		opts Options
		// ref is the uninterrupted run; cut stops it after the unsettled
		// save of round seq.
		ref, cut leafScript
		seq      int
	}{
		{
			name: "mid-interval",
			opts: Options{Adaptive: true},
			ref:  leafScript{respond: normal},
			cut:  leafScript{respond: normal, trapStep: 5},
			seq:  5,
		},
		{
			// The round-4 report is answered with round 6's update: the leaf
			// fast-forwards, and trains through boundary 6 without reporting.
			name: "synced-ahead",
			opts: Options{Adaptive: true},
			ref: leafScript{respond: func(round int) (int, bool) {
				if round == 4 {
					return 6, false
				}
				return round, false
			}},
			cut: leafScript{respond: func(round int) (int, bool) {
				switch round {
				case 4:
					return 6, false
				case 8:
					return 0, true
				}
				return round, false
			}},
			seq: 6,
		},
		{
			// The round-4 update never comes: the leaf rides it out.
			name: "ride-out",
			opts: Options{Adaptive: true, MinQuorum: 0.5,
				RecvTimeout: deadlineScale * 300 * time.Millisecond},
			ref: leafScript{respond: func(round int) (int, bool) {
				if round == 4 {
					return 0, false
				}
				return round, false
			}},
			cut: leafScript{respond: func(round int) (int, bool) {
				switch round {
				case 4:
					return 0, false
				case 6:
					return 0, true
				}
				return round, false
			}},
			seq: 4,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			ref, err := row.ref.run(t, row.opts)
			if err != nil {
				t.Fatal(err)
			}
			opts := row.opts
			opts.CheckpointDir = t.TempDir()
			if _, err := row.cut.run(t, opts); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("cut run ended with %v, want wrapped ErrInterrupted", err)
			}
			st := newestLeafSlot(t, opts.CheckpointDir)
			dim := len(st.Vectors["y"])
			if st.Seq != row.seq || len(st.Vectors["dyn/interval"]) != 2*dim {
				t.Fatalf("newest snapshot: t=%d with %d interval values, want t=%d with %d",
					st.Seq, len(st.Vectors["dyn/interval"]), row.seq, 2*dim)
			}

			opts.Resume = true
			resumed, err := leafScript{respond: normal}.run(t, opts)
			if err != nil {
				t.Fatal(err)
			}
			var want []scriptedReport
			for _, rep := range ref {
				if rep.round > row.seq {
					want = append(want, rep)
				}
			}
			if len(resumed) != len(want) {
				t.Fatalf("resumed leaf sent %d reports, the uninterrupted one %d after t=%d", len(resumed), len(want), row.seq)
			}
			for i := range want {
				if !sameReport(resumed[i], want[i]) {
					t.Errorf("report %d (round %d) differs from the uninterrupted leaf's (must be bit-identical)", i, want[i].round)
				}
			}
		})
	}
}

// TestAllPositiveZeroMatchesPerElement holds the block test to the
// per-element one: a single −0, subnormal or NaN at every offset of every
// block, and in the tail, makes the same decision, as do all-+0 vectors of
// every length around a block.
func TestAllPositiveZeroMatchesPerElement(t *testing.T) {
	perElement := func(v []float64) bool {
		for _, x := range v {
			if math.Float64bits(x) != 0 {
				return false
			}
		}
		return true
	}
	for n := 0; n <= 29; n++ {
		v := make([]float64, n)
		if !allPositiveZero(v) {
			t.Fatalf("%d zeros: not all +0", n)
		}
		for i := range v {
			for _, x := range []float64{math.Copysign(0, -1), 5e-324, math.Float64frombits(0x7ff00000cafe0001), math.NaN()} {
				v[i] = x
				if got, want := allPositiveZero(v), perElement(v); got != want {
					t.Fatalf("n=%d, %#x at %d: %v, per element %v", n, math.Float64bits(x), i, got, want)
				}
				v[i] = 0
			}
		}
	}
}

// TestIntervalKeepsNegativeZero: only bit pattern +0 is elided. A −0
// accumulator is stored and restored to the bit.
func TestIntervalKeepsNegativeZero(t *testing.T) {
	cfg := buildConfig(t, 101, 0)
	opts, _, ts, err := prepare(cfg, Options{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	x0 := make(tensor.Vector, cfg.Model.Dim())
	w := newTreeLeaf(cfg, ts, 0, x0, opts)
	if got := w.saveInterval(nil); len(got) != 0 {
		t.Fatalf("fresh accumulators encode to %d values, want none", len(got))
	}
	negZero := math.Copysign(0, -1)
	w.state.YSum[3] = negZero
	interval := w.saveInterval(nil)
	n := len(x0)
	if len(interval) != 2*n {
		t.Fatalf("with a −0 the entry holds %d values, want %d", len(interval), 2*n)
	}
	back := newTreeLeaf(cfg, ts, 0, x0, opts)
	if err := back.loadInterval(interval); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(back.state.YSum[3]) != math.Float64bits(negZero) {
		t.Errorf("restored Σy[3] = %v, want −0", back.state.YSum[3])
	}
	for _, bad := range []int{1, n, 2*n + 1} {
		if err := back.loadInterval(make([]float64, bad)); err == nil || !strings.Contains(err.Error(), "interval") {
			t.Errorf("an interval entry of %d values: err = %v, want one naming the entry", bad, err)
		}
	}
}

// TestSeparateAccumulatorSnapshotRefused: a snapshot family from the build
// that stored a leaf's Σ∇F and Σy as separate vectors —
// that build's fingerprint, node IDs and entry names — carries no leaf
// layout token. Every node refuses it up front with ErrMismatch instead of
// failing on a missing entry.
func TestSeparateAccumulatorSnapshotRefused(t *testing.T) {
	cfg := buildConfig(t, 101, 0)
	dir := t.TempDir()
	opts, _, ts, err := prepare(cfg, Options{Adaptive: true, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	oldFP := cfg.Fingerprint("cluster/tier") + fmt.Sprintf(" adaptive=%v signal=1 ceiling=%g topology=%s report=%s",
		opts.Adaptive, core.DefaultClampCeiling, ts.tree, reportLayout)
	dim := cfg.Model.Dim()
	// Each node's entries as that build registered them; only the leaves'
	// differ from this build's.
	type layout struct{ vectors, dynamics, rngs, ints, floats []string }
	fabricate := func(node string, seq int, l layout) {
		t.Helper()
		mgr, err := checkpoint.NewManager(dir, node)
		if err != nil {
			t.Fatal(err)
		}
		reg := checkpoint.NewRegistry(mgr, oldFP)
		defer reg.Close()
		for _, name := range l.vectors {
			reg.Vector(name, make([]float64, dim))
		}
		for _, name := range l.dynamics {
			reg.Dynamic(name, func(dst []float64) []float64 { return dst }, func([]float64) error { return nil })
		}
		for _, name := range l.rngs {
			reg.RNG(name, rng.New(1))
		}
		for _, name := range l.ints {
			reg.Int(name, new(int))
		}
		for _, name := range l.floats {
			reg.Float(name, new(float64))
		}
		if err := reg.Save(seq); err != nil {
			t.Fatal(err)
		}
	}
	tier := layout{
		vectors:  []string{"yMinus", "yPlus", "xPlus", "lastY/0", "lastX/0", "lastY/1", "lastX/1"},
		dynamics: []string{"losses", "pending"},
		ints:     []string{"missStreak/0", "missStreak/1"},
	}
	root := tier
	root.dynamics = append(root.dynamics, "curve")
	root.floats = []string{"weightedLoss"}
	fabricate(CloudID, 1, root)
	for l := range cfg.Edges {
		fabricate(EdgeID(l), 2, tier)
		for i := range cfg.Edges[l] {
			fabricate(WorkerID(l, i), 4, layout{
				vectors: []string{"x", "y", "gradSum", "ySum"},
				rngs:    []string{"sampler"},
				ints:    []string{"syncedThrough"},
				floats:  []string{"lastLoss"},
			})
		}
	}
	_, err = Run(cfg, transport.NewMemoryNetwork(), opts)
	if !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume from a separate-accumulator snapshot family = %v, want wrapped checkpoint.ErrMismatch", err)
	}
	if errors.Is(err, checkpoint.ErrFormat) || strings.Contains(err.Error(), "checkpoint: restore") {
		t.Errorf("a separate-accumulator snapshot was opened and misread before being refused: %v", err)
	}
}

// TestCheckpointFilesReleased: every node closes the slot files it holds
// open between saves on every way out — a completed run, an interrupted
// one, and a crashed leaf the supervisor respawns from its checkpoint — so
// no descriptor of the run's directory outlives cluster.Run.
func TestCheckpointFilesReleased(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd on this system")
	}
	openIn := func(dir string) []string {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		var held []string
		for _, fd := range fds {
			target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
			if err == nil && strings.HasPrefix(target, dir) {
				held = append(held, target)
			}
		}
		return held
	}
	cfg := buildConfig(t, 101, 0)
	cfg.T = 48

	dir := t.TempDir()
	if _, err := Run(cfg, transport.NewMemoryNetwork(), Options{Adaptive: true, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	if held := openIn(dir); len(held) != 0 {
		t.Errorf("after a completed run these files are still open: %v", held)
	}

	dir = t.TempDir()
	interruptRun(t, cfg, Options{Adaptive: true, CheckpointDir: dir},
		transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{Seed: 4, MaxDelay: 2 * time.Millisecond}))
	if held := openIn(dir); len(held) != 0 {
		t.Errorf("after an interrupted run these files are still open: %v", held)
	}

	dir = t.TempDir()
	chaos := buildChaosConfig(t, 103)
	down := WorkerID(0, 1)
	res, err := Run(chaos, transport.NewFaultyNetwork(transport.NewMemoryNetwork(), transport.FaultPlan{
		Seed:               5,
		CrashAtRound:       map[string]int{down: 6},
		RestartAfterRounds: map[string]int{down: 4},
	}), Options{
		Adaptive:          true,
		MinQuorum:         0.5,
		StragglerDeadline: deadlineScale * 100 * time.Millisecond,
		RecvTimeout:       deadlineScale * 2 * time.Second,
		CheckpointDir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultReport == nil || len(res.FaultReport.Restarted) != 1 {
		t.Fatalf("the crashed leaf was not respawned: %+v", res.FaultReport)
	}
	if held := openIn(dir); len(held) != 0 {
		t.Errorf("after a crash and respawn these files are still open: %v", held)
	}
}
