package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// fsync makes a file's (or directory's) contents durable. Every byte a
// Manager reports as saved has been through it; tests count the calls.
var fsync = (*os.File).Sync

// Manager owns the snapshot files of one logical node (or one simulation
// run) inside a checkpoint directory: two generations in two fixed slot
// files, "<base>-slot0.ckpt" and "<base>-slot1.ckpt" (base isolates the
// nodes sharing one directory from each other). A save overwrites, in place,
// the slot that does not hold the newest valid generation, so a crash at any
// point leaves that generation intact; Latest loads the newest slot that
// still validates.
type Manager struct {
	dir, base string
	slots     [2]string // slot file paths
	// Valid once scanned: each slot file's length (-1: no file) and the slot
	// the coming save overwrites.
	size    [2]int64
	next    int
	scanned bool
}

// NewManager prepares (and creates, if needed) dir for snapshots of the
// given base name.
func NewManager(dir, base string) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if base == "" || strings.ContainsAny(base, "/\\") {
		return nil, fmt.Errorf("checkpoint: invalid base name %q", base)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	return &Manager{dir: dir, base: base, slots: [2]string{
		filepath.Join(dir, base+"-slot0.ckpt"), filepath.Join(dir, base+"-slot1.ckpt")}}, nil
}

// save makes snap (one encoded snapshot) the newest generation and returns
// once it is durable. Steady state creates, renames and removes nothing: the
// slot is opened, overwritten from offset 0, cut back only if the snapshot
// shrank, and fsynced. A slot that does not exist yet is born complete
// instead (written as "<slot>.new", fsynced, renamed, directory fsynced;
// twice per base, ever), so a crash during a node's very first save resumes
// as a fresh start, not as "every generation corrupt", and directory pollers
// never see a half-written file.
func (m *Manager) save(snap []byte) error {
	if !m.scanned {
		if _, _, err := m.scan(); err != nil {
			return err
		}
	}
	i := m.next
	path, create := m.slots[i], 0
	if m.size[i] < 0 {
		path, create = path+".new", os.O_CREATE|os.O_TRUNC
	}
	err := writeSynced(path, create, snap, m.size[i])
	if err == nil && create != 0 {
		if err = os.Rename(path, m.slots[i]); err == nil {
			err = m.syncDir()
		}
	}
	if err != nil {
		m.scanned = false // the slot's state is unknown now: look again
		return fmt.Errorf("checkpoint: save %s: %w", m.slots[i], err)
	}
	m.size[i], m.next = int64(len(snap)), 1-i
	return nil
}

// writeSynced lays snap over the start of the file at path, truncates what
// is left of a longer previous content (oldSize), and fsyncs.
func writeSynced(path string, flag int, snap []byte, oldSize int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY|flag, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(snap)
	if err == nil && oldSize > int64(len(snap)) {
		err = f.Truncate(int64(len(snap)))
	}
	if err == nil {
		err = fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir makes the directory's entries durable (a slot's birth, Clear).
func (m *Manager) syncDir() error {
	d, err := os.Open(m.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsync(d)
}

// scan reads both slots, recording their sizes and which one the next save
// may overwrite. It returns the newest generation that validates — on equal
// sequence numbers the lower slot: they carry equal state, only a leaf's
// interrupt save repeats one — and the last validation failure.
func (m *Manager) scan() (best *State, corrupt, err error) {
	m.next, m.scanned = 0, true
	for i, path := range m.slots {
		raw, rerr := os.ReadFile(path)
		if errors.Is(rerr, fs.ErrNotExist) {
			m.size[i] = -1
			continue
		}
		if rerr != nil {
			m.scanned = false
			return nil, nil, fmt.Errorf("checkpoint: %w", rerr)
		}
		m.size[i] = int64(len(raw))
		if st, rerr := Read(bytes.NewReader(raw)); rerr != nil {
			corrupt = fmt.Errorf("%s: %w", path, rerr)
		} else if best == nil || st.Seq > best.Seq {
			best, m.next = st, 1-i
		}
	}
	return best, corrupt, nil
}

// Latest loads the newest snapshot generation that validates. A torn or
// corrupt newest slot (wrapped ErrFormat from Read) — what a crash during an
// overwrite leaves — falls back to the other one; only when every existing
// slot is corrupt does Latest fail. No snapshot at all is (nil, nil), a fresh
// start; only old-layout "<base>-<seq>.ckpt" generations is an error.
func (m *Manager) Latest() (*State, error) {
	best, corrupt, err := m.scan()
	if best != nil || err != nil {
		return best, err
	}
	if corrupt != nil {
		return nil, fmt.Errorf("checkpoint: every generation of %s is corrupt: %w", m.base, corrupt)
	}
	old, err := m.legacy()
	if err != nil || len(old) == 0 {
		return nil, err
	}
	return nil, fmt.Errorf("%w: %s is in the old <base>-<seq>.ckpt layout, which this build does not read (a run without resume clears it)",
		ErrFormat, old[0])
}

// legacy lists this base's generations in the old "<base>-<seq>.ckpt" layout.
func (m *Manager) legacy() ([]string, error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: list %s: %w", m.dir, err)
	}
	var old []string
	for _, e := range entries {
		seq, ok := strings.CutPrefix(e.Name(), m.base+"-")
		if ok {
			seq, ok = strings.CutSuffix(seq, ".ckpt")
		}
		if ok && seq != "" && strings.Trim(seq, "0123456789") == "" {
			old = append(old, filepath.Join(m.dir, e.Name()))
		}
	}
	return old, nil
}

// Clear removes every snapshot of this base — both slots, what a crash
// during a slot's birth left behind, and old-layout generations — for runs
// starting fresh in a previously used directory.
func (m *Manager) Clear() error {
	stale, err := m.legacy()
	if err != nil {
		return err
	}
	for _, slot := range m.slots {
		stale = append(stale, slot, slot+".new")
	}
	for _, path := range stale {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("checkpoint: clear: %w", err)
		}
	}
	m.size, m.next, m.scanned = [2]int64{-1, -1}, 0, true
	if err := m.syncDir(); err != nil {
		return fmt.Errorf("checkpoint: clear: %w", err)
	}
	return nil
}
