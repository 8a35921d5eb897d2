// Package ckpttest holds helpers for tests that stage crash scenarios in a
// checkpoint directory. Test code only: nothing outside _test.go files may
// import it.
package ckpttest

import (
	"os"
	"path/filepath"
	"testing"

	"hieradmo/internal/checkpoint"
)

// DeleteNewest removes the snapshot file in dir that holds the highest
// sequence number, rewinding the directory to the state a crash between the
// last two snapshots leaves. Newest is decided by decoding every *.ckpt file:
// slot file names say nothing about which generation a slot holds.
func DeleteNewest(t testing.TB, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("need at least 2 snapshot generations to rewind, have %v", files)
	}
	newest, newestSeq := "", 0
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := checkpoint.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if newest == "" || st.Seq > newestSeq {
			newest, newestSeq = path, st.Seq
		}
	}
	if err := os.Remove(newest); err != nil {
		t.Fatal(err)
	}
}
