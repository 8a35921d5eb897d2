// Package checkpoint persists complete mid-run training state so crashed or
// interrupted runs resume bit-exactly. A snapshot is a binary file (magic +
// little-endian, length-prefixed payloads) with the three properties
// recovery needs:
//
//   - integrity: a version field and a CRC-32 over the payload, so a torn or
//     bit-flipped file is detected and rejected (wrapped ErrFormat) instead of
//     silently resuming from garbage;
//   - atomicity: every snapshot overwrites, in place and fsynced before
//     Save returns, the one of a node's two slot files that does not hold
//     its newest valid generation, so a crash mid-write tears only that slot
//     and never the generation a resume falls back to;
//   - identity: every snapshot embeds a config fingerprint, and restore
//     refuses (ErrMismatch) to load state produced under a different
//     configuration.
//
// A Manager keeps the last two snapshot generations per node and falls back
// to the previous generation when the newest is torn or corrupt. A Registry
// binds named live state (vectors, RNG streams, counters) to snapshot fields
// so algorithms declare once what their resumable state is.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"hieradmo/internal/rng"
	"hieradmo/internal/vecbytes"
)

var (
	// ErrFormat wraps every malformed-snapshot failure: truncation, bad
	// magic, unknown version, CRC mismatch, implausible lengths.
	ErrFormat = errors.New("checkpoint: malformed snapshot")
	// ErrMismatch wraps fingerprint mismatches: the snapshot is intact but
	// was produced by a different configuration, so resuming from it would
	// silently train the wrong run.
	ErrMismatch = errors.New("checkpoint: config fingerprint mismatch")
)

// magic identifies snapshot files. "HADMOCK1" was an older parameters-only
// format; this is its stateful successor, and the root package's
// SaveCheckpoint stores its one-vector parameter files in it too.
const magic = "HADMOCK2"

// version is bumped on any incompatible payload layout change.
const version = 1

const (
	// maxStringLen bounds decoded string lengths (names, fingerprints).
	maxStringLen = 1 << 20
	// maxVectorLen bounds decoded vector lengths (8 GiB of float64s).
	maxVectorLen = 1 << 30
	// maxEntries bounds every section's entry count.
	maxEntries = 1 << 24
)

// State is one complete, self-describing training snapshot: a config
// fingerprint, the sequence number of the last completed iteration (or
// protocol round), and named sections for every kind of resumable state.
type State struct {
	// Fingerprint identifies the configuration that produced the snapshot.
	Fingerprint string
	// Seq is the last fully completed iteration/round the snapshot captures.
	Seq int
	// Vectors holds model parameters, momentum buffers, and accumulators.
	Vectors map[string][]float64
	// RNGs holds the position of every random stream (mini-batch samplers,
	// participation sampling, stochastic quantization).
	RNGs map[string]rng.Snapshot
	// Ints holds integer counters (protocol watermarks like syncedThrough).
	Ints map[string]int64
	// Floats holds scalar state (losses, momentum magnitudes).
	Floats map[string]float64
}

// NewState returns an empty snapshot for the given fingerprint and sequence
// number.
func NewState(fingerprint string, seq int) *State {
	return &State{
		Fingerprint: fingerprint,
		Seq:         seq,
		Vectors:     make(map[string][]float64),
		RNGs:        make(map[string]rng.Snapshot),
		Ints:        make(map[string]int64),
		Floats:      make(map[string]float64),
	}
}

// headerLen is a snapshot's fixed prefix: magic, version, payload length.
const headerLen = len(magic) + 4 + 8

// Write serializes the state to w: magic, version, payload length, payload,
// CRC-32 (IEEE) of the payload. Map sections are encoded in sorted key order
// so identical states serialize to identical bytes.
func Write(w io.Writer, st *State) error {
	var e encoder
	e.begin(st.Fingerprint, st.Seq)
	section(&e, st.Vectors, e.vector)
	section(&e, st.RNGs, e.rng)
	section(&e, st.Ints, func(name string, v int64) { e.scalar(name, uint64(v)) })
	section(&e, st.Floats, func(name string, v float64) { e.scalar(name, math.Float64bits(v)) })
	snap, err := e.finish()
	if err != nil {
		return err
	}
	for _, b := range snap {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("checkpoint: write snapshot: %w", err)
		}
	}
	return nil
}

// section encodes one of a State's maps: its entry count, then the entries
// in sorted name order.
func section[V any](e *encoder, m map[string]V, put func(name string, v V)) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	e.u32(uint32(len(m)))
	for _, name := range names {
		put(name, m[name])
	}
}

// Read deserializes a state written by Write, verifying magic, version, and
// CRC. Every malformed input fails with a wrapped ErrFormat; Read never
// panics on corrupt bytes.
func Read(r io.Reader) (*State, error) {
	head := make([]byte, headerLen)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrFormat, err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, head[:len(magic)])
	}
	if v := binary.LittleEndian.Uint32(head[len(magic):]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrFormat, v, version)
	}
	n := binary.LittleEndian.Uint64(head[len(magic)+4:])
	if n > maxVectorLen*8 {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrFormat, n)
	}
	// Grow the payload buffer from bytes actually read rather than trusting
	// the declared length: a corrupt header must not force a multi-GiB
	// allocation before the short read is detected.
	var pbuf bytes.Buffer
	if m, err := io.CopyN(&pbuf, r, int64(n)); err != nil {
		return nil, fmt.Errorf("%w: payload: short read (%d of %d bytes): %v", ErrFormat, m, n, err)
	}
	payload := pbuf.Bytes()
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: crc: %v", ErrFormat, err)
	}
	if want, got := binary.LittleEndian.Uint32(crc[:]), crc32.ChecksumIEEE(payload); want != got {
		return nil, fmt.Errorf("%w: crc mismatch (stored %08x, computed %08x)", ErrFormat, want, got)
	}
	if extra, err := io.Copy(io.Discard, r); err == nil && extra > 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after crc", ErrFormat, extra)
	}
	return decodePayload(payload)
}

// encoder lays one snapshot — header, payload sections, CRC — out as
// pieces to be written in order. Every field but a vector's values goes into
// buf, whose capacity it reuses; on a little-endian host a vector's values
// are not copied but spliced in as a view of the vector's own memory, so the
// pieces alternate: a segment of buf, a vector, ..., buf's last segment. It
// is the only definition of the HADMOCK2 v1 byte layout: Write drives it
// from a State's maps, Registry.Save from the live bindings, both section by
// section in sorted name order. The first failure sticks in err and finish
// reports it.
type encoder struct {
	buf    []byte
	pieces [][]byte // reused across snapshots
	cut    int      // where buf's segment after the last spliced vector starts
	err    error
}

// reserve sizes the encoder for snapshots whose fields take about n bytes
// besides the values of nvec vectors.
func (e *encoder) reserve(n, nvec int) {
	e.buf = slices.Grow(e.buf, n)
	e.pieces = slices.Grow(e.pieces, 2*nvec+1)
}

func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *encoder) str(s string) {
	if len(s) > maxStringLen && e.err == nil {
		e.err = fmt.Errorf("checkpoint: string field of %d bytes exceeds limit", len(s))
	}
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// begin starts a snapshot: the header with the payload length left open,
// then the fingerprint and sequence number.
func (e *encoder) begin(fingerprint string, seq int) {
	e.buf, e.pieces, e.cut, e.err = append(e.buf[:0], magic...), e.pieces[:0], 0, nil
	e.u32(version)
	e.u64(0)
	e.str(fingerprint)
	e.u64(uint64(int64(seq)))
}

// vector appends one vector-section entry; on a little-endian host the
// values are v's memory, spliced in uncopied, so v must not change before
// the snapshot is written.
func (e *encoder) vector(name string, v []float64) {
	if len(v) > maxVectorLen && e.err == nil {
		e.err = fmt.Errorf("checkpoint: vector %q of %d elements exceeds limit", name, len(v))
	}
	e.str(name)
	e.u64(uint64(len(v)))
	if !vecbytes.HostLittleEndian {
		e.valuesGeneric(v)
		return
	}
	if len(v) > 0 {
		e.pieces = append(e.pieces, e.buf[e.cut:], vecbytes.Of(v))
		e.cut = len(e.buf)
	}
}

// valuesGeneric appends v value by value: the big-endian host's path, and
// the oracle the byte view is tested against. The room for the values is
// claimed once and filled in place.
func (e *encoder) valuesGeneric(v []float64) {
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(v))[:off+8*len(v)]
	b := e.buf[off:]
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

func (e *encoder) rng(name string, s rng.Snapshot) {
	e.str(name)
	e.u64(s.State)
	e.u64(math.Float64bits(s.Spare))
	if s.HasSpare {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// scalar appends one int- or float-section entry (its 64 bits).
func (e *encoder) scalar(name string, bits uint64) {
	e.str(name)
	e.u64(bits)
}

// finish closes the snapshot — payload length patched into the header, CRC
// accumulated over the pieces and patched in after them — and returns its
// bytes as pieces to be written in order. They stay valid until the next
// begin, and the spliced vectors must not change before they are written.
func (e *encoder) finish() ([][]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.u32(0) // the CRC's room; buf does not move after this
	e.pieces = append(e.pieces, e.buf[e.cut:])
	// Recut buf's segments from its final array: the earlier ones may lie in
	// one it has outgrown since they were taken.
	off, size := 0, 0
	for i, p := range e.pieces {
		if i%2 == 0 {
			e.pieces[i] = e.buf[off : off+len(p)]
			off += len(p)
		}
		size += len(p)
	}
	binary.LittleEndian.PutUint64(e.buf[len(magic)+4:], uint64(size-headerLen-4))
	// The payload is everything between the header, which opens the first
	// segment, and the CRC, which closes the last.
	crc, last := uint32(0), len(e.pieces)-1
	for i, p := range e.pieces {
		if i == last {
			p = p[:len(p)-4]
		}
		if i == 0 {
			p = p[headerLen:]
		}
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	binary.LittleEndian.PutUint32(e.buf[len(e.buf)-4:], crc)
	return e.pieces, nil
}

// decoder consumes little-endian fields from a payload. The first short read
// or implausible length sticks in err (a wrapped ErrFormat); every read after
// it returns zero, so decodePayload checks once per entry, not per field.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrFormat}, args...)...)
	}
}

// take returns the next n bytes, or nil once the decoder has failed.
func (d *decoder) take(n int) []byte {
	if d.err == nil && (n < 0 || len(d.buf) < n) {
		d.failf("payload truncated (%d bytes left, need %d)", len(d.buf), n)
	}
	if d.err != nil {
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) str() string {
	n := d.u32()
	if n > maxStringLen {
		d.failf("implausible string length %d", n)
	}
	return string(d.take(int(n)))
}

// count reads a section's entry count; the section loops stop on d.err.
func (d *decoder) count(section string) int {
	n := d.u32()
	if n > maxEntries {
		d.failf("implausible %s count %d", section, n)
	}
	return int(n)
}

func decodePayload(payload []byte) (*State, error) {
	d := &decoder{buf: payload}
	fp := d.str()
	st := NewState(fp, int(int64(d.u64())))
	for j := d.count("vector"); j > 0 && d.err == nil; j-- {
		name := d.str()
		n := d.u64()
		if n > maxVectorLen || n*8 > uint64(len(d.buf)) {
			d.failf("implausible vector length %d for %q", n, name)
		}
		raw := d.take(int(n) * 8) // one bounds check per vector, not per element
		if d.err != nil {
			break
		}
		v := make([]float64, n)
		copy(vecbytes.Of(v), raw)
		if !vecbytes.HostLittleEndian {
			vecbytes.Swap(v)
		}
		st.Vectors[name] = v
	}
	for j := d.count("rng"); j > 0 && d.err == nil; j-- {
		name := d.str()
		s := rng.Snapshot{State: d.u64()}
		s.Spare = math.Float64frombits(d.u64())
		if b := d.take(1); b != nil {
			s.HasSpare = b[0] != 0
		}
		st.RNGs[name] = s
	}
	for j := d.count("int"); j > 0 && d.err == nil; j-- {
		name := d.str()
		st.Ints[name] = int64(d.u64())
	}
	for j := d.count("float"); j > 0 && d.err == nil; j-- {
		name := d.str()
		st.Floats[name] = math.Float64frombits(d.u64())
	}
	if len(d.buf) != 0 {
		d.failf("%d unconsumed payload bytes", len(d.buf))
	}
	if d.err != nil {
		return nil, d.err
	}
	return st, nil
}
