package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"hieradmo/internal/allocprobe"
)

// TestRegistrySaveFootprint pins that a save stages no vector: a leaf's
// first Save, with its two model-sized vectors (2 × 15 380 values, 246 kB),
// allocates what the registry's plan, the slot file's birth and the scan
// of the empty directory need and nothing sized by the values. Encoding the
// values into one snapshot-sized buffer before writing it cost 255 kB here.
func TestRegistrySaveFootprint(t *testing.T) {
	mgr, err := NewManager(t.TempDir(), "node")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	g := benchRegistry(mgr, 2)
	encode(t, sampleState()) // the process's CRC tables, built on first use
	_, grew := allocprobe.Own(func() { err = g.Save(1) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("first save: %.0f bytes", grew)
	if grew >= 8<<10 {
		t.Errorf("the first save allocated %.0f bytes, want under %d", grew, 8<<10)
	}
}

// TestSaveManyPieces saves a snapshot of many pieces, empty vectors among
// them, and holds the slot to the bytes Write produces.
func TestSaveManyPieces(t *testing.T) {
	mgr, err := NewManager(t.TempDir(), "node")
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	g := NewRegistry(mgr, "many")
	st := NewState("many", 3)
	for i := 0; i < 700; i++ {
		v := make([]float64, i%5)
		for j := range v {
			v[j] = float64(i) + float64(j)/8
		}
		name := fmt.Sprintf("v%03d", i)
		g.Vector(name, v)
		st.Vectors[name] = v
	}
	for seq := 3; seq <= 4; seq++ { // birth, then overwrite
		st.Seq = seq
		if err := g.Save(seq); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(mgr.newest())
		if err != nil {
			t.Fatal(err)
		}
		if want := encode(t, st); !bytes.Equal(got, want) {
			t.Fatalf("seq %d: slot holds %d bytes that differ from Write's %d", seq, len(got), len(want))
		}
	}
}
