package checkpoint

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzOpenSnapshot throws arbitrary bytes at the snapshot decoder. The
// contract under fuzzing is total: for every input, Read either returns a
// fully decoded *State, or a nil state with an error wrapping ErrFormat —
// it never panics, never returns a partial state, and never reports success
// on bytes Write would not reproduce. A decoded state is additionally pushed
// through the fingerprint check so the ErrMismatch path is exercised too.
func FuzzOpenSnapshot(f *testing.F) {
	valid := new(bytes.Buffer)
	if err := Write(valid, sampleState()); err != nil {
		f.Fatal(err)
	}
	empty := new(bytes.Buffer)
	if err := Write(empty, NewState("", 0)); err != nil {
		f.Fatal(err)
	}

	// Seed the corpus with the interesting regions: intact snapshots, every
	// corruption class from the table test, and raw junk.
	f.Add(valid.Bytes())
	f.Add(empty.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:5])                        // truncated header
	f.Add(valid.Bytes()[:len(valid.Bytes())-2])     // truncated crc
	f.Add(append(valid.Bytes(), 0xAA))              // trailing garbage
	f.Add([]byte("HADMOCK1 not a snapshot at all")) // old persist magic
	f.Add(bytes.Repeat([]byte{0xFF}, 64))           // implausible lengths

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Read(bytes.NewReader(data))
		if err != nil {
			if st != nil {
				t.Fatalf("Read returned a state alongside error %v", err)
			}
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("Read error %v does not wrap ErrFormat", err)
			}
			return
		}
		// Accepted input: re-encoding must reproduce the canonical bytes, so
		// the decoder cannot accept a second representation of any state.
		var reenc bytes.Buffer
		if err := Write(&reenc, st); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(reenc.Bytes(), data) {
			t.Fatalf("decoder accepted non-canonical bytes: %d in, %d re-encoded", len(data), reenc.Len())
		}
		// Restoring under a different config fingerprint must refuse with
		// ErrMismatch (the snapshot is intact, just foreign). Only decoded
		// inputs reach this, so the filesystem round-trip stays off the hot
		// fuzz path.
		mgr, err := NewManager(t.TempDir(), "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.save([][]byte{data}); err != nil {
			t.Fatalf("re-save of accepted snapshot failed: %v", err)
		}
		foreign := NewRegistry(mgr, st.Fingerprint+"-other")
		if _, _, err := foreign.Restore(); !errors.Is(err, ErrMismatch) {
			t.Fatalf("foreign fingerprint err = %v, want wrapped ErrMismatch", err)
		}
	})
}
