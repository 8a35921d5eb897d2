package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/model"
	"hieradmo/internal/robust"
	"hieradmo/internal/tensor"
	"hieradmo/internal/transport"
)

// The golden digests in testdata/golden_runtime.json were recorded from the
// role-specific cloud/edge/worker runtime at the last commit that carried it
// (13684a6), by running this test there with -update-golden. They replace
// that runtime as the reference the level-parametric tier runtime is held
// to: every scenario family the old "tree ≡ legacy" tests covered must keep
// producing the recorded bits — final model, curve, and report counts — on
// both transports and at every pool size. Regenerating the file is only
// legitimate when the algorithm itself is meant to change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_runtime.json from the current runtime")

const goldenPath = "testdata/golden_runtime.json"

// goldenDigest is what one scenario must reproduce bit for bit. Floats are
// stored as IEEE-754 bit patterns so JSON round-trips cannot blur them.
type goldenDigest struct {
	// Params is the SHA-256 of the final global model's float bits.
	Params    string
	FinalAcc  string
	FinalLoss string
	// Curve lists "iter:accBits:lossBits" per recorded point.
	Curve []string
	// Fault holds the wall-clock-independent part of the FaultReport, nil
	// when the run recorded no fault. Resume scenarios digest neither Fault
	// nor Attack: their interrupt point is not pinned, so how many stale
	// re-sends and injections land in the resumed half is not either.
	Fault      *goldenFaults        `json:",omitempty"`
	Membership *fl.MembershipReport `json:",omitempty"`
	Attack     *fl.AttackReport     `json:",omitempty"`
}

// goldenFaults are the FaultReport fields that depend only on the seeded
// fault plan and the protocol, never on goroutine timing.
type goldenFaults struct {
	MissingWorkers map[int]int `json:",omitempty"`
	MissingEdges   map[int]int `json:",omitempty"`
	Crashed        []string    `json:",omitempty"`
	Restarted      []string    `json:",omitempty"`
	NodeErrors     int
}

func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// capturingModel remembers the parameters of the most recent Predict call.
// Only the root evaluates accuracy, and its last evaluation is the final
// model on the full test set — so after a run this is the final global
// model, observed without reaching into any node type.
type capturingModel struct {
	model.Model
	mu   sync.Mutex
	last []float64
}

func (m *capturingModel) Predict(params, x tensor.Vector) (int, error) {
	m.mu.Lock()
	m.last = append(m.last[:0], params...)
	m.mu.Unlock()
	return m.Model.Predict(params, x)
}

func (m *capturingModel) hash() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := sha256.New()
	var b [8]byte
	for _, v := range m.last {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenScenario is one recorded run.
type goldenScenario struct {
	name string
	cfg  func(t *testing.T) *fl.Config
	opts func(t *testing.T) Options
	// plan, when set, wraps the transport in a FaultyNetwork.
	plan func(cfg *fl.Config) transport.FaultPlan
	// checkpoint gives the run a checkpoint directory (restart scenarios
	// respawn from it).
	checkpoint bool
	// resume interrupts the run as soon as a snapshot exists and digests the
	// resumed run instead.
	resume bool
}

func tolerantOptions(quorum float64) Options {
	return Options{
		Adaptive:          true,
		MinQuorum:         quorum,
		StragglerDeadline: deadlineScale * 100 * time.Millisecond,
		RecvTimeout:       deadlineScale * 2 * time.Second,
	}
}

func goldenScenarios() []goldenScenario {
	std := func(seed uint64, classes int) func(*testing.T) *fl.Config {
		return func(t *testing.T) *fl.Config { return buildConfig(t, seed, classes) }
	}
	flat := func(edges ...int) func(*testing.T) *fl.Config {
		return func(t *testing.T) *fl.Config { return buildFlatConfig(t, 67, edges) }
	}
	ragged := flat(3, 1, 2)
	wide := func(seed uint64) func(*testing.T) *fl.Config {
		return func(t *testing.T) *fl.Config { return buildChaosConfig(t, seed) }
	}
	plain := func(o Options) func(*testing.T) Options {
		return func(*testing.T) Options { return o }
	}
	parsePlan := func(t *testing.T, spec string) *membership.Plan {
		t.Helper()
		plan, err := membership.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return &plan
	}
	const attack = "signflip:worker-0-1@2,noise:worker-1-0@3-5=0.5,replay:worker-1-1@4"

	s := []goldenScenario{
		{name: "static/adaptive", cfg: std(31, 2), opts: plain(Options{Adaptive: true})},
		{name: "static/reduced", cfg: std(31, 2), opts: plain(Options{})},
		{name: "static/velocity", cfg: std(59, 2), opts: plain(Options{Adaptive: true, Signal: core.SignalVelocity})},
		{name: "static/ragged", cfg: ragged, opts: plain(Options{Adaptive: true})},
		{name: "static/workers=1", cfg: flat(1), opts: plain(Options{Adaptive: true})},
		{name: "static/workers=2", cfg: flat(2), opts: plain(Options{Adaptive: true})},
		{name: "static/workers=8", cfg: flat(4, 4), opts: plain(Options{Adaptive: true})},
		{name: "static/cnn", cfg: func(t *testing.T) *fl.Config {
			cfg := buildConfig(t, 131, 2)
			m, err := model.NewCNN(dataset.Shape{C: 1, H: 5, W: 5}, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Model = m
			return cfg
		}, opts: plain(Options{Adaptive: true})},

		{name: "quorum/drops+crash", cfg: wide(73), opts: plain(tolerantOptions(0.5)), plan: chaosPlan},
		{name: "quorum/edge-crash", cfg: std(79, 0), opts: plain(tolerantOptions(0.5)),
			plan: func(*fl.Config) transport.FaultPlan {
				return transport.FaultPlan{Seed: 2, CrashAtRound: map[string]int{EdgeID(1): 21}}
			}},

		{name: "restart/final-round", cfg: func(t *testing.T) *fl.Config { return buildRecoveryConfig(t, 3) },
			opts: plain(tolerantOptions(2.0 / 3)), checkpoint: true,
			plan: func(*fl.Config) transport.FaultPlan {
				return transport.FaultPlan{
					Seed:               1,
					CrashAtRound:       map[string]int{WorkerID(0, 1): 2},
					RestartAfterRounds: map[string]int{WorkerID(0, 1): 2},
				}
			}},
		{name: "restart/rejoin", cfg: wide(103), opts: plain(tolerantOptions(0.5)), checkpoint: true,
			plan: func(*fl.Config) transport.FaultPlan {
				return transport.FaultPlan{
					Seed:               5,
					CrashAtRound:       map[string]int{WorkerID(0, 1): 6},
					RestartAfterRounds: map[string]int{WorkerID(0, 1): 4},
				}
			}},

		{name: "churn/ragged", cfg: ragged, opts: func(t *testing.T) Options {
			return Options{Adaptive: true, RetierEvery: 1,
				ChurnPlan: parsePlan(t, "join:worker-2-1@4,leave:worker-0-2@7")}
		}},
		{name: "churn/reduced", cfg: std(51, 2), opts: func(t *testing.T) Options {
			o := churnOptions(t)
			o.Adaptive = false
			o.Migration = membership.MigrateRescale
			return o
		}},

		{name: "byz/churn", cfg: std(51, 2), opts: func(t *testing.T) Options {
			return Options{
				Adaptive:        true,
				ChurnPlan:       parsePlan(t, "leave:worker-1-0@9"),
				AttackPlan:      byzPlan(t, "replay:worker-1-0@7-9"),
				EdgeAggregator:  robust.Spec{Kind: robust.Trimmed, Trim: 0.25},
				CloudAggregator: robust.Spec{Kind: robust.Trimmed, Trim: 0.25},
			}
		}},

		{name: "resume/static", cfg: func(t *testing.T) *fl.Config {
			cfg := buildConfig(t, 101, 0)
			cfg.T = 48
			return cfg
		}, opts: plain(Options{Adaptive: true}), resume: true},
		{name: "resume/churn", cfg: std(101, 2), opts: churnOptions, resume: true},
		{name: "resume/byz", cfg: wide(71), opts: func(t *testing.T) Options {
			return Options{
				Adaptive:       true,
				AttackPlan:     byzPlan(t, attack),
				EdgeAggregator: robust.Spec{Kind: robust.Median},
			}
		}, resume: true},
	}
	for _, pol := range []membership.MigrationPolicy{
		membership.MigrateZero, membership.MigrateCarry, membership.MigrateRescale,
	} {
		pol := pol
		s = append(s, goldenScenario{name: "churn/" + pol.String(), cfg: std(51, 2),
			opts: func(t *testing.T) Options {
				o := churnOptions(t)
				o.Migration = pol
				return o
			}})
	}
	for _, agg := range []robust.Spec{
		{Kind: robust.Mean},
		{Kind: robust.Median},
		{Kind: robust.Trimmed, Trim: 0.25},
		{Kind: robust.Clip, Clip: 0.5},
		{Kind: robust.Cosine, CosMin: 0},
	} {
		agg := agg
		s = append(s, goldenScenario{name: "byz/" + agg.String(), cfg: wide(61),
			opts: func(t *testing.T) Options {
				return Options{Adaptive: true, AttackPlan: byzPlan(t, attack),
					EdgeAggregator: agg, CloudAggregator: agg}
			}})
	}
	return s
}

// goldenVariant is one execution environment a scenario must be invariant
// under.
type goldenVariant struct {
	name    string
	tcp     bool
	workers int
}

var goldenVariants = []goldenVariant{
	{"memory", false, 0},
	{"memory/pool=1", false, 1},
	{"memory/pool=2", false, 2},
	{"memory/pool=8", false, 8},
	{"tcp", true, 0},
}

// runGolden executes one scenario under one variant and digests the result.
func runGolden(t *testing.T, sc goldenScenario, v goldenVariant) goldenDigest {
	t.Helper()
	cfg := sc.cfg(t)
	cfg.Workers = v.workers
	capture := &capturingModel{Model: cfg.Model}
	cfg.Model = capture
	opts := sc.opts(t)
	if sc.checkpoint || sc.resume {
		opts.CheckpointDir = t.TempDir()
	}
	network := func(plan *transport.FaultPlan) Network {
		var inner transport.Network = transport.NewMemoryNetwork()
		if v.tcp {
			inner = transport.NewTCPNetwork()
		}
		if plan == nil {
			return inner
		}
		return transport.NewFaultyNetwork(inner, *plan)
	}
	var plan *transport.FaultPlan
	if sc.plan != nil {
		p := sc.plan(cfg)
		plan = &p
	}
	if sc.resume {
		interruptRun(t, cfg, opts, network(&transport.FaultPlan{Seed: 4, MaxDelay: 2 * time.Millisecond}))
		opts.Resume = true
	}
	res, err := Run(cfg, network(plan), opts)
	if err != nil {
		t.Fatalf("%s [%s]: %v", sc.name, v.name, err)
	}
	d := goldenDigest{
		Params:     capture.hash(),
		FinalAcc:   bits(res.FinalAcc),
		FinalLoss:  bits(res.FinalLoss),
		Membership: res.Membership,
	}
	if !sc.resume {
		d.Attack = res.AttackReport
	}
	for _, p := range res.Curve {
		d.Curve = append(d.Curve, fmt.Sprintf("%d:%s:%s", p.Iter, bits(p.TestAcc), bits(p.TrainLoss)))
	}
	if f := res.FaultReport; f != nil && !sc.resume {
		g := &goldenFaults{
			Crashed:    append([]string(nil), f.Crashed...),
			Restarted:  append([]string(nil), f.Restarted...),
			NodeErrors: len(f.NodeErrors),
		}
		if len(f.MissingWorkers) > 0 {
			g.MissingWorkers = f.MissingWorkers
		}
		if len(f.MissingEdges) > 0 {
			g.MissingEdges = f.MissingEdges
		}
		sort.Strings(g.Crashed)
		sort.Strings(g.Restarted)
		d.Fault = g
	}
	return d
}

// interruptRun starts a checkpointing run and requests a graceful shutdown as
// soon as any node has written a snapshot (sender-side delays stretch the run
// so the request lands mid-protocol).
func interruptRun(t *testing.T, cfg *fl.Config, opts Options, net Network) {
	t.Helper()
	interrupt := make(chan struct{})
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if files, _ := filepath.Glob(filepath.Join(opts.CheckpointDir, "*.ckpt")); len(files) > 0 {
				close(interrupt)
				return
			}
		}
	}()
	opts.Interrupt = interrupt
	_, err := Run(cfg, net, opts)
	close(stop)
	watch.Wait()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run ended with %v, want wrapped ErrInterrupted", err)
	}
}

// loadGolden reads the recorded digests.
func loadGolden(t *testing.T) map[string]goldenDigest {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]goldenDigest
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	return golden
}

// checkGolden runs sc under every variant and requires the recorded digest.
func checkGolden(t *testing.T, sc goldenScenario, want goldenDigest) {
	t.Helper()
	for _, v := range goldenVariants {
		if testing.Short() && v.name != "memory" && v.name != "tcp" {
			continue
		}
		got := runGolden(t, sc, v)
		// Round-trip through JSON so empty-vs-nil collections compare the
		// way the file stores them.
		enc, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		var norm goldenDigest
		if err := json.Unmarshal(enc, &norm); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(norm, want) {
			wantJSON, _ := json.MarshalIndent(want, "", "  ")
			gotJSON, _ := json.MarshalIndent(norm, "", "  ")
			t.Errorf("%s [%s] diverged from the recorded runtime\n got: %s\nwant: %s", sc.name, v.name, gotJSON, wantJSON)
		}
	}
}

// TestGoldenRuntime holds the runtime to the digests recorded from the
// role-specific cloud/edge/worker triple before it was deleted.
func TestGoldenRuntime(t *testing.T) {
	scenarios := goldenScenarios()
	if *updateGolden {
		out := make(map[string]goldenDigest, len(scenarios))
		for _, sc := range scenarios {
			out[sc.name] = runGolden(t, sc, goldenVariants[0])
		}
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := loadGolden(t)
	if len(golden) != len(scenarios) {
		t.Errorf("golden file holds %d scenarios, the table %d", len(golden), len(scenarios))
	}
	for _, sc := range scenarios {
		want, ok := golden[sc.name]
		if !ok {
			t.Errorf("%s: no golden digest recorded", sc.name)
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, sc, want)
		})
	}
}
