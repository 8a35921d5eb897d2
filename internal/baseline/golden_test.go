package baseline

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"hieradmo/internal/checkpoint/ckpttest"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/tensor"
)

// The digests in testdata/golden_baselines.json were recorded from the nine
// baselines at commit 0b8d28c — the last one where each of them carried its
// own training loop (fednag.go, fedavg.go, fastslowmo.go, hierfavg.go,
// servermom.go, mime.go, fedadc.go) — by running this test there with
// -update-golden. They pin the baselines' *math* across the move onto the
// shared simulation driver and the core kernel: every scenario must keep
// producing the recorded bits — final model, curve, and the counts of the
// trace events the run metrics are derived from — at every pool size. The
// file is never regenerated to make a refactor pass; that is only legitimate
// when an algorithm itself is meant to change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_baselines.json from the current baselines")

const goldenPath = "testdata/golden_baselines.json"

// goldenNotice is the file's header: JSON carries no comments, so the
// provenance travels as data.
const goldenNotice = "Recorded from the hand-written baseline loops at commit 0b8d28c (go test ./internal/baseline -run TestGoldenBaselines -update-golden), " +
	"before they became rule rows over the shared simulation driver. Never regenerate this file to make a refactor pass."

// goldenFile is the on-disk layout of testdata/golden_baselines.json.
type goldenFile struct {
	Notice    string
	Scenarios map[string]goldenDigest
}

// goldenDigest is what one scenario must reproduce bit for bit. Floats are
// stored as IEEE-754 bit patterns so JSON round-trips cannot blur them.
type goldenDigest struct {
	// Params is the SHA-256 of the final global model's float bits.
	Params    string
	FinalAcc  string
	FinalLoss string
	// Curve lists "iter:accBits:lossBits" per recorded point.
	Curve []string
	// Events counts the trace events of each kind in goldenKinds.
	Events map[string]int
}

// goldenKinds are the event kinds whose per-run counts are pinned: the ones
// the run-level metrics mirror (fl_cloud_syncs_total, fl_edge_aggregations_total,
// fl_evals_total, fl_checkpoint_*) plus the run brackets. They are every kind
// the recorded loops emit. The progress events a driver may add around them
// (round_start, round_end, worker_train) are deliberately not pinned: the
// recorded loops emit none, the HierAdMo simulation always has.
var goldenKinds = []string{
	"run_start", "edge_aggregate", "cloud_aggregate", "eval",
	"checkpoint_save", "checkpoint_resume", "run_end",
}

func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// capturingModel remembers the parameters of the most recent Predict call.
// A run's last evaluation is Finish on the final global model, so after a run
// this is that model, observed without reaching into Run. (Evaluation fans
// out over the pool; every call of one evaluation carries the same
// parameters.)
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

// goldenScenario is one recorded baseline run.
type goldenScenario struct {
	name string
	alg  fl.Algorithm
	// edges is the workers-per-edge shape. The ragged one makes
	// EdgeWeights[ℓ]·WorkerWeights[ℓ][i] a product of non-dyadic fractions, so
	// a reordered or re-associated weight shows in the low bits.
	edges []int
	// clip sets cfg.ClipNorm, covering the clipped branch of the gradient
	// step.
	clip float64
	// resume runs once with checkpointing, rewinds the directory past the
	// newest snapshot, and digests the resumed run instead.
	resume bool
}

func goldenScenarios() []goldenScenario {
	var s []goldenScenario
	for _, alg := range allAlgorithms() {
		s = append(s,
			goldenScenario{name: alg.Name() + "/base", alg: alg, edges: []int{2, 2}},
			goldenScenario{name: alg.Name() + "/ragged", alg: alg, edges: []int{3, 1, 2}},
			goldenScenario{name: alg.Name() + "/clip", alg: alg, edges: []int{2, 2}, clip: 1},
			goldenScenario{name: alg.Name() + "/resume", alg: alg, edges: []int{3, 1, 2}, resume: true},
		)
	}
	return s
}

// runGolden executes one scenario at one pool size and digests it.
func runGolden(t *testing.T, sc goldenScenario, pool int) goldenDigest {
	t.Helper()
	run := func(dir string) (goldenDigest, error) {
		cfg := buildConfigEdges(t, 23, sc.edges)
		cfg.T = 48
		cfg.EvalEvery = 8
		cfg.Workers = pool
		cfg.ClipNorm = sc.clip
		cfg.CheckpointDir = dir
		capture := &capturingModel{Model: cfg.Model}
		cfg.Model = capture
		var trace bytes.Buffer
		cfg.Telemetry = telemetry.New(nil, telemetry.NewTracer(&trace))
		var d goldenDigest
		res, err := sc.alg.Run(cfg)
		if err != nil {
			return d, err
		}
		if err := cfg.Telemetry.Tracer().Flush(); err != nil {
			return d, err
		}
		d.Params = capture.hash()
		d.FinalAcc, d.FinalLoss = bits(res.FinalAcc), bits(res.FinalLoss)
		for _, p := range res.Curve {
			d.Curve = append(d.Curve, fmt.Sprintf("%d:%s:%s", p.Iter, bits(p.TestAcc), bits(p.TrainLoss)))
		}
		events, err := telemetry.ReadTrace(&trace)
		if err != nil {
			return d, err
		}
		if err := telemetry.CheckTrace(events); err != nil {
			return d, err
		}
		d.Events = make(map[string]int, len(goldenKinds))
		for _, kind := range goldenKinds {
			d.Events[kind] = 0
		}
		for _, ev := range events {
			if _, pinned := d.Events[ev.Ev]; pinned {
				d.Events[ev.Ev]++
			}
		}
		return d, nil
	}
	dir := ""
	if sc.resume {
		dir = t.TempDir()
		if _, err := run(dir); err != nil {
			t.Fatalf("%s pool=%d first run: %v", sc.name, pool, err)
		}
		ckpttest.DeleteNewest(t, dir)
	}
	d, err := run(dir)
	if err != nil {
		t.Fatalf("%s pool=%d: %v", sc.name, pool, err)
	}
	return d
}

// TestGoldenBaselines holds every baseline to the digests recorded from its
// own hand-written loop.
func TestGoldenBaselines(t *testing.T) {
	scenarios := goldenScenarios()
	if *updateGolden {
		out := goldenFile{Notice: goldenNotice, Scenarios: make(map[string]goldenDigest, len(scenarios))}
		for _, sc := range scenarios {
			out.Scenarios[sc.name] = runGolden(t, sc, 1)
		}
		raw, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var file goldenFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	golden := file.Scenarios
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
			for _, pool := range []int{1, 2, 8} {
				if got := runGolden(t, sc, pool); !reflect.DeepEqual(got, want) {
					gotJSON, _ := json.MarshalIndent(got, "", "  ")
					wantJSON, _ := json.MarshalIndent(want, "", "  ")
					t.Errorf("%s pool=%d diverged from the recorded baseline\n got: %s\nwant: %s",
						sc.name, pool, gotJSON, wantJSON)
				}
			}
		})
	}
}
