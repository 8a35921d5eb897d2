package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"testing"

	"hieradmo/internal/rng"
)

// specialValues are the float64s whose bits a conversion could disturb: −0,
// ±Inf, a quiet and a signalling NaN with payload bits, the largest
// subnormal and the smallest, and ±MaxFloat64.
var specialValues = []float64{
	math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8dead0000beef),
	math.Float64frombits(0x7ff00000cafe0001),
	-2.2250738585072009e-308, 5e-324,
	math.MaxFloat64, -math.MaxFloat64,
}

// pinnedBindings are the live state the snapshot digest is taken over: every
// special value, an empty vector, a model-sized ramp, and one binding of
// every other kind.
type pinnedBindings struct {
	special, empty, ramp []float64
	dyn                  []float64
	r                    *rng.RNG
	n                    int
	x                    float64
}

func newPinnedBindings() *pinnedBindings {
	p := &pinnedBindings{
		special: append([]float64(nil), specialValues...),
		empty:   []float64{},
		ramp:    make([]float64, 3000),
		dyn:     []float64{specialValues[4], 1, 2},
		r:       rng.New(17),
		n:       -41,
		x:       specialValues[3],
	}
	for i := range p.ramp {
		p.ramp[i] = float64(i)*0.1 - 7
	}
	p.r.Norm() // cache a spare
	return p
}

func (p *pinnedBindings) register(g *Registry) {
	g.Vector("model/special", p.special)
	g.Vector("model/empty", p.empty)
	g.Vector("model/ramp", p.ramp)
	g.Dynamic("backlog",
		func(dst []float64) []float64 { return append(dst, p.dyn...) },
		func(v []float64) error { p.dyn = append(p.dyn[:0], v...); return nil })
	g.RNG("sampler", p.r)
	g.Int("synced", &p.n)
	g.Float("loss", &p.x)
}

// pinnedSnapshotDigest is the SHA-256 of the snapshot Registry.Save writes
// for pinnedBindings, recorded when the values were still converted one by
// one: the HADMOCK2 version-1 bytes must never move, or snapshots an older
// binary wrote stop resuming.
const pinnedSnapshotDigest = "ee9d2b8a1d4198249d39615b050aa2bc4253d90cf5d83c4b5fa2c402549c80f3"

func TestSnapshotFormatPinned(t *testing.T) {
	mgr, err := NewManager(t.TempDir(), "node")
	if err != nil {
		t.Fatal(err)
	}
	want := newPinnedBindings()
	g := NewRegistry(mgr, "fp-pinned")
	want.register(g)
	if err := g.Save(12); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(mgr.newest())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != pinnedSnapshotDigest {
		t.Fatalf("snapshot digest %s, want %s: the version-1 snapshot bytes moved", got, pinnedSnapshotDigest)
	}

	// The pinned bytes restore, bit for bit, into a fresh process's bindings.
	got := &pinnedBindings{special: make([]float64, len(specialValues)), empty: []float64{},
		ramp: make([]float64, len(want.ramp)), r: rng.New(1)}
	g = NewRegistry(reopen(t, mgr), "fp-pinned")
	got.register(g)
	seq, ok, err := g.Restore()
	if err != nil || !ok || seq != 12 {
		t.Fatalf("Restore = %d, %v, %v; want 12, true, nil", seq, ok, err)
	}
	for _, pair := range [][2][]float64{{got.special, want.special}, {got.ramp, want.ramp},
		{got.dyn, want.dyn}, {{got.x}, {want.x}}} {
		if !sameFloatBits(pair[0], pair[1]) {
			t.Errorf("restored %v, want %v", pair[0], pair[1])
		}
	}
	if got.n != want.n || got.r.Snapshot() != want.r.Snapshot() {
		t.Errorf("restored int %d, rng %+v; want %d, %+v", got.n, got.r.Snapshot(), want.n, want.r.Snapshot())
	}
}

// sameFloatBits compares bit patterns, so NaN payloads and −0 count.
func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// laidDown is what e has encoded so far: the pieces, then buf's open segment.
func laidDown(e *encoder) []byte {
	var out []byte
	for _, p := range e.pieces {
		out = append(out, p...)
	}
	return append(out, e.buf[e.cut:]...)
}

// TestSnapshotValuesMatchGeneric holds the byte view to the value-by-value
// conversion it replaced on little-endian hosts: a vector entry is what
// valuesGeneric lays down, byte for byte, and Read gives every bit back.
func TestSnapshotValuesMatchGeneric(t *testing.T) {
	ramp := newPinnedBindings().ramp
	for _, v := range [][]float64{specialValues, {}, ramp} {
		var view, generic encoder
		view.vector("v", v)
		generic.str("v")
		generic.u64(uint64(len(v)))
		generic.valuesGeneric(v)
		if !bytes.Equal(laidDown(&view), generic.buf) {
			t.Fatalf("%d-value entry differs from the generic encoding", len(v))
		}
	}
	st := NewState("fp", 1)
	st.Vectors["special"], st.Vectors["ramp"] = specialValues, ramp
	back, err := Read(bytes.NewReader(encode(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range st.Vectors {
		if !sameFloatBits(back.Vectors[name], v) {
			t.Errorf("vector %q came back as %v", name, back.Vectors[name])
		}
	}
}
