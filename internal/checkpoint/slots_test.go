package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hieradmo/internal/rng"
)

// seqState is a small snapshot whose payload length grows with size.
func seqState(seq, size int) *State {
	st := NewState("fp", seq)
	st.Vectors["v"] = make([]float64, size)
	for i := range st.Vectors["v"] {
		st.Vectors["v"][i] = float64(seq*1000 + i)
	}
	return st
}

// newest returns the slot the manager wrote last.
func (m *Manager) newest() string { return m.slots[1-m.next] }

// reopen is what a restarted process sees: a fresh manager on the same files.
func reopen(t *testing.T, m *Manager) *Manager {
	t.Helper()
	fresh, err := NewManager(m.dir, m.base)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestRegistrySaveMatchesWrite: the bytes Registry.Save lays down straight
// from the live bindings are the bytes checkpoint.Write produces for the
// equivalent State — one definition of the layout — and Read round-trips them.
func TestRegistrySaveMatchesWrite(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		mgr, err := NewManager(t.TempDir(), "run")
		if err != nil {
			t.Fatal(err)
		}
		fp := fmt.Sprintf("fp-%d", seed)
		g := NewRegistry(mgr, fp)
		vecs := make(map[string][]float64)
		for i := r.Intn(5); i > 0; i-- {
			v := make([]float64, r.Intn(40))
			vecs[fmt.Sprintf("vec/%d/%d", r.Intn(3), i)] = v
		}
		rngs := make(map[string]*rng.RNG)
		for i := r.Intn(3); i > 0; i-- {
			rngs[fmt.Sprintf("rng%d", i)] = rng.New(r.Uint64())
		}
		ints := make(map[string]*int)
		for i := r.Intn(4); i > 0; i-- {
			ints[fmt.Sprintf("int%d", i)] = new(int)
		}
		floats := make(map[string]*float64)
		for i := r.Intn(4); i > 0; i-- {
			floats[fmt.Sprintf("float%d", i)] = new(float64)
		}
		dyns := make(map[string]*[]float64)
		for i := r.Intn(3); i > 0; i-- {
			dyns[fmt.Sprintf("dyn%d", i)] = new([]float64)
		}
		for name, v := range vecs {
			g.Vector(name, v)
		}
		for name, p := range rngs {
			g.RNG(name, p)
		}
		for name, p := range ints {
			g.Int(name, p)
		}
		for name, p := range floats {
			g.Float(name, p)
		}
		for name, p := range dyns {
			g.Dynamic(name,
				func(dst []float64) []float64 { return append(dst, *p...) },
				func(v []float64) error { *p = append((*p)[:0], v...); return nil })
		}

		for seq := 1; seq <= 4; seq++ {
			// Move every binding, growing and shrinking the dynamics.
			want := NewState(fp, seq)
			for name, v := range vecs {
				for i := range v {
					v[i] = r.Norm()
				}
				want.Vectors[name] = v
			}
			for name, p := range rngs {
				p.Norm()
				want.RNGs[name] = p.Snapshot()
			}
			for name, p := range ints {
				*p = r.Intn(1000) - 500
				want.Ints[name] = int64(*p)
			}
			for name, p := range floats {
				*p = r.Norm()
				want.Floats[name] = *p
			}
			for name, p := range dyns {
				*p = (*p)[:0]
				for i := r.Intn(30); i > 0; i-- {
					*p = append(*p, r.Norm())
				}
				want.Vectors["dyn/"+name] = *p
			}
			if err := g.Save(seq); err != nil {
				t.Fatalf("seed %d seq %d: %v", seed, seq, err)
			}
			got, err := os.ReadFile(mgr.newest())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, encode(t, want)) {
				t.Fatalf("seed %d seq %d: Registry.Save wrote %d bytes that differ from Write's %d",
					seed, seq, len(got), len(encode(t, want)))
			}
			back, err := Read(bytes.NewReader(got))
			if err != nil {
				t.Fatalf("seed %d seq %d: Read of saved bytes: %v", seed, seq, err)
			}
			if !bytes.Equal(encode(t, back), got) {
				t.Fatalf("seed %d seq %d: saved bytes do not round-trip through Read", seed, seq)
			}
		}
	}
}

// TestLatestSurvivesTornNewestSlot stages everything a crash during an
// in-place overwrite can leave in the newest slot — any prefix of the new
// snapshot, a flipped byte, a new prefix over the old generation's tail — and
// expects the previous generation back each time; with the other slot bad
// too, an error rather than a fresh start.
func TestLatestSurvivesTornNewestSlot(t *testing.T) {
	m, err := NewManager(t.TempDir(), "node")
	if err != nil {
		t.Fatal(err)
	}
	saveState(t, m, seqState(1, 6)) // slot 0
	saveState(t, m, seqState(2, 9)) // slot 1: the longer, older occupant
	saveState(t, m, seqState(3, 6)) // slot 0
	prev, torn := m.slots[0], m.slots[1]
	old, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	fresh := encode(t, seqState(4, 7)) // the save the crash interrupts

	expectPrevious := func(what string, content []byte) {
		t.Helper()
		if err := os.WriteFile(torn, content, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := reopen(t, m).Latest()
		if err != nil || st == nil || st.Seq != 3 {
			t.Fatalf("%s: Latest = (%+v, %v), want the previous generation (seq 3)", what, st, err)
		}
	}
	for n := 0; n < len(fresh); n++ {
		expectPrevious(fmt.Sprintf("truncated at %d", n), fresh[:n])
		// The overwrite got n bytes in: the old occupant's tail is still there.
		expectPrevious(fmt.Sprintf("new prefix %d over old tail", n), append(append([]byte(nil), fresh[:n]...), old[n:]...))
	}
	// The whole new snapshot landed but the longer old tail was not cut yet.
	expectPrevious("complete but untruncated", append(append([]byte(nil), fresh...), old[len(fresh):]...))
	r := rng.New(7)
	for i := 0; i < 32; i++ {
		flipped := append([]byte(nil), fresh...)
		off := r.Intn(len(flipped))
		flipped[off] ^= 1 << uint(r.Intn(8))
		expectPrevious(fmt.Sprintf("bit flipped at %d", off), flipped)
	}

	// Intact, the interrupted save would have won.
	if err := os.WriteFile(torn, fresh, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := reopen(t, m).Latest(); err != nil || st.Seq != 4 {
		t.Fatalf("intact newest slot: Latest = (%+v, %v), want seq 4", st, err)
	}
	// Both slots bad: an error, never "no snapshot".
	for _, path := range []string{prev, torn} {
		if err := os.WriteFile(path, fresh[:len(fresh)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := reopen(t, m).Latest(); st != nil || !errors.Is(err, ErrFormat) {
		t.Fatalf("both slots torn: Latest = (%v, %v), want wrapped ErrFormat", st, err)
	}
}

// TestShorterSnapshotLeavesNoTail: a snapshot that shrank is cut to length,
// in the running manager and in one that learns the slot sizes from disk.
func TestShorterSnapshotLeavesNoTail(t *testing.T) {
	m, err := NewManager(t.TempDir(), "node")
	if err != nil {
		t.Fatal(err)
	}
	for seq, size := range []int{40, 40, 3, 25, 2, 2} {
		if seq == 4 {
			m = reopen(t, m)
		}
		st := seqState(seq, size)
		saveState(t, m, st)
		got, err := os.ReadFile(m.newest())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, encode(t, st)) {
			t.Fatalf("seq %d (%d values): slot holds %d bytes, snapshot is %d", seq, size, len(got), len(encode(t, st)))
		}
		if latest, err := reopen(t, m).Latest(); err != nil || latest.Seq != seq {
			t.Fatalf("seq %d: Latest = (%+v, %v)", seq, latest, err)
		}
	}
}

// TestRepeatedSeqKeepsTwoGenerations: a leaf's interrupt save repeats the
// sequence number (and the state) of the save before it. Neither that tie
// nor a resume on top of it may make a later save overwrite the newest
// generation: after every save, corrupting the slot just written must still
// fall back to the generation saved before it.
func TestRepeatedSeqKeepsTwoGenerations(t *testing.T) {
	m, err := NewManager(t.TempDir(), "node")
	if err != nil {
		t.Fatal(err)
	}
	prevSeq := -1
	for step, seq := range []int{4, 5, 5, 6, 6, 7, 8} {
		if step == 3 || step == 5 {
			m = reopen(t, m) // resume: slot choice comes from the files alone
			if st, err := m.Latest(); err != nil || st.Seq != prevSeq {
				t.Fatalf("step %d: resumed at (%+v, %v), want seq %d", step, st, err, prevSeq)
			}
		}
		saveState(t, m, seqState(seq, 5))
		if st, err := reopen(t, m).Latest(); err != nil || st.Seq != seq {
			t.Fatalf("step %d: Latest = (%+v, %v), want seq %d", step, st, err, seq)
		}
		if prevSeq >= 0 {
			written := m.newest()
			good, err := os.ReadFile(written)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(written, good[:len(good)-3], 0o644); err != nil {
				t.Fatal(err)
			}
			if st, err := reopen(t, m).Latest(); err != nil || st.Seq != prevSeq {
				t.Fatalf("step %d: with the save of seq %d torn, Latest = (%+v, %v), want seq %d",
					step, seq, st, err, prevSeq)
			}
			if err := os.WriteFile(written, good, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		prevSeq = seq
	}
}

// TestSaveSyncsBeforeReturning: when Save returns, the bytes in the slot
// have been through fsync — nothing was written after the last sync — and a
// slot's birth (the only directory mutation) and Clear sync the directory.
func TestSaveSyncsBeforeReturning(t *testing.T) {
	dir := t.TempDir()
	synced := make(map[string][]byte) // file name → content at its last fsync
	dirSyncs := 0
	real := fsync
	fsync = func(f *os.File) error {
		if f.Name() == dir {
			dirSyncs++
		} else {
			raw, err := os.ReadFile(f.Name())
			if err != nil {
				return err
			}
			synced[strings.TrimSuffix(f.Name(), ".new")] = raw
		}
		return real(f)
	}
	defer func() { fsync = real }()

	mgr, err := NewManager(dir, "node")
	if err != nil {
		t.Fatal(err)
	}
	g := NewRegistry(mgr, "fp")
	vec := make([]float64, 8)
	g.Vector("v", vec)
	for seq := 1; seq <= 6; seq++ {
		vec[0] = float64(seq)
		if err := g.Save(seq); err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.ReadFile(mgr.newest())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, synced[mgr.newest()]) {
			t.Fatalf("seq %d: Save returned with bytes in %s that no fsync covered", seq, mgr.newest())
		}
		if want := min(seq, 2); dirSyncs != want {
			t.Fatalf("seq %d: %d directory fsyncs, want %d (one per slot born, none in steady state)", seq, dirSyncs, want)
		}
	}
	if err := g.Clear(); err != nil {
		t.Fatal(err)
	}
	if dirSyncs != 3 {
		t.Fatalf("Clear left the directory unsynced (%d directory fsyncs, want 3)", dirSyncs)
	}
}

// TestLegacyLayoutRefusedNotIgnored: a directory holding only seq-numbered
// generations from an earlier build must not read as "no snapshot, fresh
// start" — that would silently discard the run. Clear removes them, and what
// a crash during a slot's birth left behind.
func TestLegacyLayoutRefusedNotIgnored(t *testing.T) {
	dir := t.TempDir()
	mgr, err := NewManager(dir, "worker-0")
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "worker-0-0000000004.ckpt")
	debris := filepath.Join(dir, "worker-0-slot1.ckpt.new")
	other := filepath.Join(dir, "worker-0-1-0000000004.ckpt") // another node's
	for _, path := range []string{legacy, debris, other} {
		if err := os.WriteFile(path, encode(t, seqState(4, 3)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = NewRegistry(mgr, "fp").Restore()
	if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("Restore over a legacy directory = %v, want wrapped ErrFormat naming %s", err, legacy)
	}
	if err := mgr.Clear(); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0] != other {
		t.Fatalf("after Clear the directory holds %v, want only %s", left, other)
	}
	if st, err := mgr.Latest(); st != nil || err != nil {
		t.Fatalf("Latest after Clear = (%v, %v), want a fresh start", st, err)
	}
}

// TestRegistryRejectsAmbiguousBindings: the encode plan is fixed at the
// first Save, so a name bound twice within a kind, a vector colliding with a
// dynamic's entry, or a registration after the first Save is a sticky error
// rather than a silently replaced or ignored binding.
func TestRegistryRejectsAmbiguousBindings(t *testing.T) {
	noop := func(dst []float64) []float64 { return dst }
	load := func([]float64) error { return nil }
	cases := []struct {
		name string
		bind func(g *Registry) // the fault; g already saved once if late
		late bool
		want string
	}{
		{"vector twice", func(g *Registry) { g.Vector("a", nil); g.Vector("a", nil) }, false, `vector "a" registered twice`},
		{"int twice", func(g *Registry) { g.Int("n", new(int)); g.Int("n", new(int)) }, false, `int "n" registered twice`},
		{"rng twice", func(g *Registry) { g.RNG("r", rng.New(1)); g.RNG("r", rng.New(2)) }, false, `rng "r" registered twice`},
		{"float twice", func(g *Registry) { g.Float("f", new(float64)); g.Float("f", new(float64)) }, false, `float "f" registered twice`},
		{"vector over dynamic", func(g *Registry) { g.Dynamic("x", noop, load); g.Vector("dyn/x", nil) }, false, `vector "dyn/x" registered twice`},
		{"late registration", func(g *Registry) { g.Float("late", new(float64)) }, true, `"late" registered after the first Save`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mgr, err := NewManager(t.TempDir(), "run")
			if err != nil {
				t.Fatal(err)
			}
			g := NewRegistry(mgr, "fp")
			g.Int("same-name-other-kind", new(int))
			g.Float("same-name-other-kind", new(float64))
			if tc.late {
				if err := g.Save(1); err != nil {
					t.Fatalf("clean registry: %v", err)
				}
			}
			tc.bind(g)
			for attempt := 0; attempt < 2; attempt++ {
				if err := g.Save(2 + attempt); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Save attempt %d = %v, want an error containing %q", attempt, err, tc.want)
				}
			}
			if !tc.late {
				if files, _ := filepath.Glob(filepath.Join(mgr.dir, "*")); len(files) != 0 {
					t.Fatalf("a refused registry still wrote %v", files)
				}
			}
		})
	}
}

// TestCloseIsIdempotentAndSaveReopens: steady-state saves reuse the slot
// files held open since their birth; Close releases them, twice over as
// well as once, and a save after Close reopens the slot it overwrites.
func TestCloseIsIdempotentAndSaveReopens(t *testing.T) {
	m, err := NewManager(t.TempDir(), "node")
	if err != nil {
		t.Fatal(err)
	}
	g := NewRegistry(m, "fp")
	vec := make([]float64, 4)
	g.Vector("v", vec)
	save := func(seq int) {
		t.Helper()
		vec[0] = float64(seq)
		if err := g.Save(seq); err != nil {
			t.Fatal(err)
		}
		if st, err := reopen(t, m).Latest(); err != nil || st.Seq != seq {
			t.Fatalf("after Save(%d): Latest = (%+v, %v)", seq, st, err)
		}
	}
	save(1)
	save(2)
	held := m.files
	if held[0] == nil || held[1] == nil {
		t.Fatalf("after both slots were born the manager holds %v, want both open", held)
	}
	save(3)
	save(4)
	if m.files != held {
		t.Fatal("a steady-state save reopened a slot file")
	}
	for i := 0; i < 2; i++ {
		if err := g.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
		if m.files != [2]*os.File{} {
			t.Fatalf("Close #%d left %v open", i+1, m.files)
		}
	}
	if _, err := held[0].Stat(); err == nil {
		t.Error("a slot file released by Close is still open")
	}
	save(5)
	save(6)
	if m.files[0] == nil || m.files[1] == nil {
		t.Fatalf("saves after Close hold %v, want both slots reopened", m.files)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleHandleNeverReportsSaved: a slot removed or replaced behind the
// handle a Manager holds — another Manager's Clear, that Manager starting
// over, a file renamed over the slot — must fail the save rather than
// report bytes that went to a file no fresh Manager can find. Every save
// that does report success is what a fresh Latest returns, and the save
// after a failure looks at the directory again.
func TestStaleHandleNeverReportsSaved(t *testing.T) {
	for _, tc := range []struct {
		name    string
		meddle  func(t *testing.T, m *Manager)
		wantSeq int // what a fresh Latest returns after the refused save; 0: nothing
	}{
		{"cleared", func(t *testing.T, m *Manager) {
			if err := reopen(t, m).Clear(); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"cleared and restarted", func(t *testing.T, m *Manager) {
			other := reopen(t, m)
			if err := other.Clear(); err != nil {
				t.Fatal(err)
			}
			saveState(t, other, seqState(10, 3))
			saveState(t, other, seqState(11, 3))
		}, 11},
		{"renamed over", func(t *testing.T, m *Manager) {
			for _, slot := range m.slots {
				raw, err := os.ReadFile(slot)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(slot+".tmp", raw, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Rename(slot+".tmp", slot); err != nil {
					t.Fatal(err)
				}
			}
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewManager(t.TempDir(), "node")
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			saveState(t, m, seqState(1, 4))
			saveState(t, m, seqState(2, 4))
			tc.meddle(t, m)
			if err := m.save([][]byte{encode(t, seqState(3, 4))}); err == nil {
				t.Fatal("a save through a stale slot handle reported success")
			}
			st, err := reopen(t, m).Latest()
			if err != nil || (st == nil) != (tc.wantSeq == 0) || (st != nil && st.Seq != tc.wantSeq) {
				t.Fatalf("after the refused save: Latest = (%+v, %v), want seq %d", st, err, tc.wantSeq)
			}
			// The next save rescans, overwrites or re-births, and lands.
			saveState(t, m, seqState(20, 4))
			if st, err := reopen(t, m).Latest(); err != nil || st.Seq != 20 {
				t.Fatalf("save after a refused one: Latest = (%+v, %v), want seq 20", st, err)
			}
		})
	}
}
