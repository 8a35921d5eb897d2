package core

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
	"hieradmo/internal/model"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/tensor"
)

// The digests in testdata/golden_sim.json were recorded from the simulation
// at commit 4e86ce2 — the last one whose core.HierAdMo carried its own copy
// of the Algorithm 1 arithmetic (workerState.step, edgeUpdate, the inline
// cloud average) — by running this test there with -update-golden. They pin
// the *math* of the simulation across the move onto the shared kernel
// (kernel.go): every scenario must keep producing the recorded bits — final
// model, curve, γℓ sequence and event trace — at every pool size. The file
// is never regenerated to make a refactor pass; that is only legitimate
// when the algorithm itself is meant to change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_sim.json from the current simulation")

const goldenPath = "testdata/golden_sim.json"

// goldenNotice is the file's header: JSON carries no comments, so the
// provenance travels as data.
const goldenNotice = "Recorded from core.HierAdMo at commit 4e86ce2 (go test ./internal/core -run TestGoldenSimulation -update-golden), " +
	"before its update arithmetic moved onto the shared kernel. Never regenerate this file to make a refactor pass."

// goldenFile is the on-disk layout of testdata/golden_sim.json.
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
	// Gammas lists "edge:gammaBits" in WithGammaObserver delivery order.
	Gammas []string
	// Trace is the SHA-256 of the JSONL event stream.
	Trace string
}

func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// capturingModel remembers the parameters of the most recent Predict call.
// The run's last evaluation is Finish on the final cloud model, so after a
// run this is the final global model, observed without reaching into Run.
// (Evaluation fans out over the pool; every call of one evaluation carries
// the same parameters.)
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

// goldenScenario is one recorded simulation run.
type goldenScenario struct {
	name  string
	build func(...Option) *HierAdMo
	opts  []Option
	// clip sets cfg.ClipNorm, covering the clipped branch of the gradient
	// step.
	clip float64
	// resume runs once with checkpointing, rewinds the directory past the
	// newest snapshot, and digests the resumed run instead.
	resume bool
}

func goldenScenarios() []goldenScenario {
	var s []goldenScenario
	for _, alg := range []struct {
		name  string
		build func(...Option) *HierAdMo
	}{{"adaptive", New}, {"reduced", NewReduced}} {
		for _, part := range []float64{1, 0.5} {
			for _, quantBits := range []int{0, 4} {
				// "ysum" names the eq. (6) statistic; the key predates the
				// removal of the second statistic and stays.
				s = append(s, goldenScenario{
					name:  fmt.Sprintf("%s/part=%g/quant=%d/ysum", alg.name, part, quantBits),
					build: alg.build,
					opts:  []Option{WithParticipation(part), WithUplinkQuantization(quantBits)},
				})
			}
		}
	}
	return append(s,
		goldenScenario{name: "adaptive/clip", build: New, clip: 0.05},
		goldenScenario{name: "adaptive/resume", build: New, resume: true,
			opts: []Option{WithParticipation(0.5), WithUplinkQuantization(4)}},
	)
}

// runGolden executes one scenario at one pool size and digests it.
func runGolden(t *testing.T, sc goldenScenario, pool int) goldenDigest {
	t.Helper()
	run := func(dir string) (goldenDigest, error) {
		cfg := buildConfig(t, []int{3, 2}, 2, 23)
		cfg.EvalEvery = 8
		cfg.Workers = pool
		cfg.ClipNorm = sc.clip
		cfg.CheckpointDir = dir
		capture := &capturingModel{Model: cfg.Model}
		cfg.Model = capture
		var trace bytes.Buffer
		cfg.Telemetry = telemetry.New(nil, telemetry.NewTracer(&trace))
		var d goldenDigest
		observer := WithGammaObserver(func(edge int, gamma float64) {
			d.Gammas = append(d.Gammas, fmt.Sprintf("%d:%s", edge, bits(gamma)))
		})
		res, err := sc.build(append(append([]Option(nil), sc.opts...), observer)...).Run(cfg)
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
		d.Trace = fmt.Sprintf("%x", sha256.Sum256(trace.Bytes()))
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

// TestGoldenSimulation holds the simulation to the digests recorded before
// its update arithmetic moved onto the shared kernel.
func TestGoldenSimulation(t *testing.T) {
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
	checkGoldenSimulation(t, 1, 2, 8)
}

// checkGoldenSimulation runs every scenario at each pool size against its
// recorded digest.
func checkGoldenSimulation(t *testing.T, pools ...int) {
	scenarios := goldenScenarios()
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
			for _, pool := range pools {
				if got := runGolden(t, sc, pool); !reflect.DeepEqual(got, want) {
					gotJSON, _ := json.MarshalIndent(got, "", "  ")
					wantJSON, _ := json.MarshalIndent(want, "", "  ")
					t.Errorf("%s pool=%d diverged from the recorded simulation\n got: %s\nwant: %s",
						sc.name, pool, gotJSON, wantJSON)
				}
			}
		})
	}
}
