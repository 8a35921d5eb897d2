package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hieradmo/internal/rng"
)

func sampleState() *State {
	st := NewState("fp-v1", 7)
	st.Vectors["model/x"] = []float64{1.5, -2.25, 0, 3e-17}
	st.Vectors["mom/y"] = []float64{0.125}
	r := rng.New(99)
	r.Norm() // cache a spare
	st.RNGs["sampler"] = r.Snapshot()
	st.Ints["synced"] = -4
	st.Floats["loss"] = 0.6931471805599453
	return st
}

func encode(t testing.TB, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteReadRoundtrip(t *testing.T) {
	st := sampleState()
	got, err := Read(bytes.NewReader(encode(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != st.Fingerprint || got.Seq != st.Seq {
		t.Fatalf("header roundtrip = (%q, %d), want (%q, %d)", got.Fingerprint, got.Seq, st.Fingerprint, st.Seq)
	}
	for name, v := range st.Vectors {
		gv := got.Vectors[name]
		if len(gv) != len(v) {
			t.Fatalf("vector %q length %d, want %d", name, len(gv), len(v))
		}
		for i := range v {
			if gv[i] != v[i] {
				t.Fatalf("vector %q[%d] = %v, want %v", name, i, gv[i], v[i])
			}
		}
	}
	if got.RNGs["sampler"] != st.RNGs["sampler"] {
		t.Fatalf("rng roundtrip = %+v, want %+v", got.RNGs["sampler"], st.RNGs["sampler"])
	}
	if got.Ints["synced"] != st.Ints["synced"] || got.Floats["loss"] != st.Floats["loss"] {
		t.Fatal("scalar sections did not roundtrip")
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	a := encode(t, sampleState())
	b := encode(t, sampleState())
	if !bytes.Equal(a, b) {
		t.Fatal("identical states serialized to different bytes")
	}
}

// TestReadRejectsCorruption is the corruption table: every malformed input
// must fail with a wrapped ErrFormat and never panic.
func TestReadRejectsCorruption(t *testing.T) {
	valid := encode(t, sampleState())
	headerLen := len(magic) + 4 + 8

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty file", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:5] }},
		{"truncated payload", func(b []byte) []byte { return b[:headerLen+3] }},
		{"truncated crc", func(b []byte) []byte { return b[:len(b)-2] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"old persist magic", func(b []byte) []byte { copy(b, "HADMOCK1"); return b }},
		{"wrong version", func(b []byte) []byte { b[len(magic)] = 0xFF; return b }},
		{"flipped payload bit", func(b []byte) []byte { b[headerLen+2] ^= 0x10; return b }},
		{"flipped crc bit", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"implausible payload length", func(b []byte) []byte {
			for i := 0; i < 8; i++ {
				b[len(magic)+4+i] = 0xFF
			}
			return b
		}},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xAA) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), valid...))
			st, err := Read(bytes.NewReader(b))
			if st != nil || !errors.Is(err, ErrFormat) {
				t.Fatalf("Read(%s) = (%v, %v), want wrapped ErrFormat", tc.name, st, err)
			}
		})
	}
}

// saveState pushes st through the manager the way Registry.Save does: one
// encoded snapshot, one save.
func saveState(t testing.TB, m *Manager, st *State) {
	t.Helper()
	if err := m.save(encode(t, st)); err != nil {
		t.Fatal(err)
	}
}

func TestManagerSaveLoadAndPrune(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, "node")
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 5; seq++ {
		st := NewState("fp", seq)
		st.Floats["v"] = float64(seq)
		saveState(t, m, st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "node-slot0.ckpt" || entries[1].Name() != "node-slot1.ckpt" {
		t.Fatalf("directory holds %v, want exactly the two slot files", entries)
	}
	st, err := m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Seq != 5 || st.Floats["v"] != 5 {
		t.Fatalf("Latest = %+v, want seq 5", st)
	}
}

// TestManagerFallsBackToPreviousGeneration corrupts the newest generation
// and expects Latest to recover from the one before it.
func TestManagerFallsBackToPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, "node")
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 2; seq++ {
		st := NewState("fp", seq)
		st.Floats["v"] = float64(seq)
		saveState(t, m, st)
	}
	// Flip one payload bit in the newest generation (the second save of a
	// fresh base lands in slot 1).
	newest := m.slots[1]
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-7] ^= 0x40
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := m.Latest()
	if err != nil {
		t.Fatalf("Latest with corrupt newest generation: %v", err)
	}
	if st.Seq != 1 || st.Floats["v"] != 1 {
		t.Fatalf("fell back to seq %d, want 1", st.Seq)
	}

	// Corrupt the surviving generation too: now every generation is bad and
	// Latest must fail with a wrapped ErrFormat, not pretend a fresh start.
	if err := os.WriteFile(m.slots[0], []byte("HADMOCK2 but nonsense"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Latest(); !errors.Is(err, ErrFormat) {
		t.Fatalf("all-corrupt Latest err = %v, want wrapped ErrFormat", err)
	}
}

func TestManagerLatestEmptyDirIsFreshStart(t *testing.T) {
	m, err := NewManager(t.TempDir(), "node")
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Latest()
	if st != nil || err != nil {
		t.Fatalf("Latest on empty dir = (%v, %v), want (nil, nil)", st, err)
	}
}

func TestManagerIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir, "node")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"other-0000000001.ckpt", "node-junk.ckpt", "node-1.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := m.Latest(); st != nil || err != nil {
		t.Fatalf("Latest with only foreign files = (%v, %v), want (nil, nil)", st, err)
	}
}

func TestRegistryRoundtripAndMismatch(t *testing.T) {
	dir := t.TempDir()
	mgr, err := NewManager(dir, "run")
	if err != nil {
		t.Fatal(err)
	}
	vec := []float64{1, 2, 3}
	r := rng.New(5)
	counter := 9
	scalar := 0.25
	var curve []float64

	bind := func(g *Registry) {
		g.Vector("vec", vec)
		g.RNG("r", r)
		g.Int("counter", &counter)
		g.Float("scalar", &scalar)
		g.Dynamic("curve",
			func(dst []float64) []float64 { return append(dst, curve...) },
			func(v []float64) error { curve = append([]float64(nil), v...); return nil })
	}

	g := NewRegistry(mgr, "fp")
	bind(g)
	r.Uint64()
	curve = []float64{10, 0.5}
	if err := g.Save(3); err != nil {
		t.Fatal(err)
	}
	want := r.Uint64()

	// Mutate everything, then restore.
	vec[0], counter, scalar, curve = -1, 0, 0, nil
	r.Restore(rng.Snapshot{})
	g2 := NewRegistry(mgr, "fp")
	bind(g2)
	seq, ok, err := g2.Restore()
	if err != nil || !ok || seq != 3 {
		t.Fatalf("Restore = (%d, %v, %v), want (3, true, nil)", seq, ok, err)
	}
	if vec[0] != 1 || counter != 9 || scalar != 0.25 || len(curve) != 2 || curve[0] != 10 {
		t.Fatalf("restored state wrong: vec=%v counter=%d scalar=%v curve=%v", vec, counter, scalar, curve)
	}
	if got := r.Uint64(); got != want {
		t.Fatalf("restored RNG draw = %d, want %d", got, want)
	}

	// A different fingerprint must refuse to resume.
	g3 := NewRegistry(mgr, "other-config")
	bind(g3)
	if _, _, err := g3.Restore(); !errors.Is(err, ErrMismatch) {
		t.Fatalf("fingerprint-mismatch Restore err = %v, want wrapped ErrMismatch", err)
	}
	if err != nil && strings.Contains(strings.ToLower(errors.Unwrap(err).Error()), "panic") {
		t.Fatal("unexpected panic text in error")
	}

	// Fresh registry on an empty manager: no snapshot, no error.
	mgr2, err := NewManager(t.TempDir(), "run")
	if err != nil {
		t.Fatal(err)
	}
	g4 := NewRegistry(mgr2, "fp")
	bind(g4)
	if seq, ok, err := g4.Restore(); seq != 0 || ok || err != nil {
		t.Fatalf("empty Restore = (%d, %v, %v), want (0, false, nil)", seq, ok, err)
	}
}

func TestRegistryRejectsShapeDrift(t *testing.T) {
	mgr, err := NewManager(t.TempDir(), "run")
	if err != nil {
		t.Fatal(err)
	}
	g := NewRegistry(mgr, "fp")
	g.Vector("v", []float64{1, 2})
	if err := g.Save(1); err != nil {
		t.Fatal(err)
	}
	g2 := NewRegistry(mgr, "fp")
	g2.Vector("v", []float64{1, 2, 3}) // dimension changed
	if _, _, err := g2.Restore(); !errors.Is(err, ErrFormat) {
		t.Fatalf("shape-drift Restore err = %v, want wrapped ErrFormat", err)
	}
	g3 := NewRegistry(mgr, "fp")
	g3.Vector("v", []float64{1, 2})
	g3.Vector("missing", []float64{0}) // state the snapshot never captured
	if _, _, err := g3.Restore(); !errors.Is(err, ErrFormat) {
		t.Fatalf("missing-field Restore err = %v, want wrapped ErrFormat", err)
	}
}
