package hieradmo

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hieradmo/internal/checkpoint"
)

func TestRunDistributedMatchesSimulation(t *testing.T) {
	cfg, err := BuildConfig(Workload{Dataset: "mnist", Model: "logistic"}, tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RunDistributed(cfg, NewMemoryNetwork(), ClusterOptions{Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if dist.FinalAcc != sim.FinalAcc {
		t.Errorf("distributed %v != simulation %v", dist.FinalAcc, sim.FinalAcc)
	}
}

func TestFacadePersistence(t *testing.T) {
	dir := t.TempDir()
	res := &Result{Algorithm: "x", FinalAcc: 0.5, Iterations: 10,
		Curve: []Point{{Iter: 10, TestAcc: 0.5, TrainLoss: 1}}}
	path := filepath.Join(dir, "r.json")
	if err := SaveResult(path, res); err != nil {
		t.Fatal(err)
	}
	got, err := LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalAcc != 0.5 {
		t.Errorf("FinalAcc = %v", got.FinalAcc)
	}

	var buf bytes.Buffer
	if err := WriteCurveCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "test_acc") {
		t.Error("CSV missing header")
	}

	ckpt := filepath.Join(dir, "m.ckpt")
	if err := SaveCheckpoint(ckpt, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	params, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 3 || params[2] != 3 {
		t.Errorf("params = %v", params)
	}
}

func sampleResult() *Result {
	return &Result{
		Algorithm:  "HierAdMo",
		FinalAcc:   0.87,
		FinalLoss:  0.12,
		Iterations: 240,
		Curve: []Point{
			{Iter: 40, TestAcc: 0.4, TrainLoss: 1.5},
			{Iter: 240, TestAcc: 0.87, TrainLoss: 0.12},
		},
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "res.json")
	if err := SaveResult(path, sampleResult()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := sampleResult(); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip %+v, want %+v", got, want)
	}
	if _, err := LoadResult(filepath.Join(dir, "missing.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: err = %v, want fs.ErrNotExist", err)
	}
}

// TestResultJSONRoundTrip: SaveResult writes plain indented JSON that
// encoding/json decodes, without the facade, into the same result.
func TestResultJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "res.json")
	if err := SaveResult(path, sampleResult()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("{\n  ")) || !bytes.HasSuffix(raw, []byte("}\n")) {
		t.Errorf("result file is not indented JSON with a trailing newline:\n%s", raw)
	}
	var got Result
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if want := sampleResult(); !reflect.DeepEqual(&got, want) {
		t.Errorf("decoded %+v, want %+v", &got, want)
	}
}

// TestLoadResultMalformed: a result file that is not JSON fails with the
// decoder's syntax error, naming the file.
func TestLoadResultMalformed(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := LoadResult(bad)
	var syntax *json.SyntaxError
	if !errors.As(err, &syntax) {
		t.Fatalf("err = %v, want a *json.SyntaxError", err)
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("err = %v, want it to name %s", err, bad)
	}
}

// TestCurveCSVRoundTrip parses the curve CSV back with encoding/csv: one
// header, one row per curve point, floats at full precision.
func TestCurveCSVRoundTrip(t *testing.T) {
	a, b := sampleResult(), sampleResult()
	b.Algorithm = "FedAvg"
	b.Curve[0].TestAcc = 1e-17
	var buf bytes.Buffer
	if err := WriteCurveCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"algorithm", "iter", "test_acc", "train_loss"},
		{"HierAdMo", "40", "0.4", "1.5"},
		{"HierAdMo", "240", "0.87", "0.12"},
		{"FedAvg", "40", "1e-17", "1.5"},
		{"FedAvg", "240", "0.87", "0.12"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows %q, want %q", rows, want)
	}
}

// checkpointRoundTrip saves params to a fresh file, loads them back and
// fails t unless every parameter comes back bit for bit.
func checkpointRoundTrip(t *testing.T, params []float64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveCheckpoint(path, params); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(params) {
		t.Fatalf("read back %d params, wrote %d", len(got), len(params))
	}
	for i := range params {
		if math.Float64bits(got[i]) != math.Float64bits(params[i]) {
			t.Errorf("param %d: %v != %v", i, got[i], params[i])
		}
	}
}

// TestCheckpointRoundTrip: special values, signed zero and infinity
// included, come back bit for bit.
func TestCheckpointRoundTrip(t *testing.T) {
	checkpointRoundTrip(t, []float64{0, 1, -1, math.Pi, 1e-300, math.MaxFloat64, math.Inf(1), math.Copysign(0, -1)})
}

// TestCheckpointFileRoundTrip: a model-sized parameter vector survives the
// file round trip.
func TestCheckpointFileRoundTrip(t *testing.T) {
	params := make([]float64, 1000)
	for i := range params {
		params[i] = float64(i) * 0.001
	}
	checkpointRoundTrip(t, params)
}

// TestCheckpointEmpty: a checkpoint of no parameters loads back empty.
func TestCheckpointEmpty(t *testing.T) {
	checkpointRoundTrip(t, nil)
}

// TestCheckpointMalformed: a file that is not a parameter snapshot — the
// retired HADMOCK1 layout, a truncated snapshot, a snapshot without the
// parameter vector — fails with checkpoint.ErrFormat.
func TestCheckpointMalformed(t *testing.T) {
	dir := t.TempDir()
	var old bytes.Buffer
	old.WriteString("HADMOCK1")
	old.Write([]byte{3, 0, 0, 0, 0, 0, 0, 0})
	old.Write(make([]byte, 3*8))

	good := filepath.Join(dir, "good.ckpt")
	if err := SaveCheckpoint(good, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	var other bytes.Buffer
	if err := checkpoint.Write(&other, checkpoint.NewState("node", 4)); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"hadmock1":  old.Bytes(),
		"truncated": raw[:len(raw)-4],
		"no params": other.Bytes(),
	} {
		path := filepath.Join(dir, "bad.ckpt")
		if err := os.WriteFile(path, body, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); !errors.Is(err, checkpoint.ErrFormat) {
			t.Errorf("%s: err = %v, want checkpoint.ErrFormat", name, err)
		}
	}
}
