package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hieradmo/internal/vecbytes"
)

// The wire frame. All integers are little-endian; DESIGN.md §7.7 has the
// same table with the reasoning.
//
//	header (24 bytes)
//	  0  u32  magic "HFLM"
//	  4  u8   version
//	  5  u8   flags (bit 0: Scalars is non-nil)
//	  6  u16  number of vectors
//	  8  u16  number of scalars
//	 10  u16  reserved, zero
//	 12  i64  round
//	 20  u32  body size: the bytes that follow the header
//	body
//	  From, To, Kind        each u16 length + bytes
//	  scalars               each u16 key length + key + f64 bits, keys
//	                        strictly ascending
//	  vector lengths        u32 each, counted in values
//	  vector values         f64 bits, all vectors back to back: on a
//	                        little-endian host, the vectors' own memory
//
// Ascending scalar keys make the encoding of a message unique, so an
// accepted frame re-encodes to the same bytes.
const (
	frameMagic     = 0x4d4c4648 // "HFLM" as a little-endian u32
	frameVersion   = 1
	frameHeaderLen = 24

	flagScalars = 1 << 0

	// Caps every declared count and length is checked against before it
	// sizes anything. They are far above what the protocol sends (at most
	// four model-sized vectors, one scalar, node IDs of a few bytes).
	maxFrameVectors = 64
	maxFrameScalars = 64
	maxFrameString  = 1024
	maxFrameBytes   = 1 << 28

	// wireBufSize is the buffered reader's and writer's size: what the frame
	// prefix needs (the header, and any one string field, maxFrameString + 2
	// bytes, in one piece), so the prefix and small vectors move in one
	// system call. A model-sized vector is not staged: on a little-endian
	// host at most this much of a frame is copied through the buffer, and the
	// rest goes straight between the socket and the vector's own memory.
	wireBufSize = 4 << 10
	// maxInterned bounds a connection's string table; a connection carries
	// a handful of distinct node IDs, kinds and scalar keys.
	maxInterned = 64
)

// encodeFrame writes msg as one frame and flushes w. A message the format
// cannot carry is refused with ErrFrame before anything is written; any
// other error is w's and leaves a partial frame behind, so the connection
// must be dropped. The values are written straight from the sender's
// vectors: on a little-endian host they are the vectors' memory.
func encodeFrame(w *bufio.Writer, msg *Message) error {
	if len(msg.Vectors) > maxFrameVectors || len(msg.Scalars) > maxFrameScalars {
		return fmt.Errorf("%w: %d vectors, %d scalars exceed the caps %d, %d",
			ErrFrame, len(msg.Vectors), len(msg.Scalars), maxFrameVectors, maxFrameScalars)
	}
	var keyBuf [maxFrameScalars]string
	keys := keyBuf[:0]
	size := 3*2 + len(msg.From) + len(msg.To) + len(msg.Kind)
	strs := max(len(msg.From), len(msg.To), len(msg.Kind))
	for k := range msg.Scalars {
		// Insertion sort into ascending order: the map's iteration order
		// must not reach the wire.
		i := len(keys)
		keys = keys[:i+1]
		for ; i > 0 && keys[i-1] > k; i-- {
			keys[i] = keys[i-1]
		}
		keys[i] = k
		size += 2 + len(k) + 8
		strs = max(strs, len(k))
	}
	for _, v := range msg.Vectors {
		size += 4 + 8*len(v)
	}
	if strs > maxFrameString || size > maxFrameBytes {
		return fmt.Errorf("%w: a %d-byte string or %d-byte body exceeds the caps %d, %d",
			ErrFrame, strs, size, maxFrameString, maxFrameBytes)
	}

	le := binary.LittleEndian
	// Every field is appended to w's own free buffer and written back, which
	// fills the buffer in place: no intermediate copy, and no scratch that
	// would escape to the heap through the Write call.
	b, err := room(w, frameHeaderLen)
	if err != nil {
		return err
	}
	flags := byte(0)
	if msg.Scalars != nil {
		flags = flagScalars
	}
	b = le.AppendUint32(b, frameMagic)
	b = append(b, frameVersion, flags)
	b = le.AppendUint16(b, uint16(len(msg.Vectors)))
	b = le.AppendUint16(b, uint16(len(keys)))
	b = le.AppendUint16(b, 0)
	b = le.AppendUint64(b, uint64(int64(msg.Round)))
	b = le.AppendUint32(b, uint32(size))
	if _, err := w.Write(b); err != nil {
		return err
	}
	for _, s := range [...]string{msg.From, msg.To, msg.Kind} {
		if err := putString(w, s); err != nil {
			return err
		}
	}
	for _, k := range keys {
		if err := putString(w, k); err != nil {
			return err
		}
		if b, err = room(w, 8); err != nil {
			return err
		}
		if _, err := w.Write(le.AppendUint64(b, math.Float64bits(msg.Scalars[k]))); err != nil {
			return err
		}
	}
	for _, v := range msg.Vectors {
		if b, err = room(w, 4); err != nil {
			return err
		}
		if _, err := w.Write(le.AppendUint32(b, uint32(len(v)))); err != nil {
			return err
		}
	}
	for _, v := range msg.Vectors {
		if err := putValues(w, v); err != nil {
			return err
		}
	}
	return w.Flush()
}

// putValues writes v's values, on a little-endian host as one write of its
// memory.
func putValues(w *bufio.Writer, v []float64) error {
	if !vecbytes.HostLittleEndian {
		return putValuesGeneric(w, v)
	}
	_, err := w.Write(vecbytes.Of(v))
	return err
}

// putValuesGeneric converts v value by value into w's buffer: the big-endian
// host's path, and the oracle the byte view is tested against.
func putValuesGeneric(w *bufio.Writer, v []float64) error {
	for len(v) > 0 {
		b, err := room(w, 8)
		if err != nil {
			return err
		}
		n := min(len(v), cap(b)/8)
		for _, x := range v[:n] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		v = v[n:]
	}
	return nil
}

// room returns w's free buffer, empty and with capacity for at least n
// bytes (n is far below the buffer's size), flushing first if need be.
func room(w *bufio.Writer, n int) ([]byte, error) {
	if w.Available() < n {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	return w.AvailableBuffer(), nil
}

// putString writes one length-prefixed string.
func putString(w *bufio.Writer, s string) error {
	b, err := room(w, 2+len(s))
	if err != nil {
		return err
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	_, err = w.Write(append(b, s...))
	return err
}

// decoder reads frames from one connection into buffers of its network's
// free list, which the network's other connections share.
type decoder struct {
	r *bufio.Reader
	// limit caps a frame's declared body size (maxFrameBytes outside tests).
	limit  int
	frames *frameList
	// names interns From, To, Kind and scalar keys, which repeat on every
	// message of a connection.
	names map[string]string
	lens  [maxFrameVectors]int
}

func newDecoder(r io.Reader, limit int, frames *frameList) *decoder {
	return &decoder{r: bufio.NewReaderSize(r, wireBufSize), limit: limit, frames: frames, names: make(map[string]string)}
}

// decode reads the next frame. It returns io.EOF when the connection ends
// between frames, io.ErrUnexpectedEOF (or the connection's error) when it
// ends inside one, and ErrFrame for a frame that is malformed or over the
// caps — every declared count and length is checked against its cap and
// against the bytes the frame has left before it sizes a read or an
// allocation. After any error the stream position is undefined and the
// connection must be dropped.
func (d *decoder) decode() (Message, error) {
	hdr, err := d.r.Peek(frameHeaderLen)
	if err != nil {
		if len(hdr) > 0 {
			err = truncated(err)
		}
		return Message{}, err
	}
	le := binary.LittleEndian
	nvec, nscalar := int(le.Uint16(hdr[6:])), int(le.Uint16(hdr[8:]))
	rem := int(le.Uint32(hdr[20:]))
	switch {
	case le.Uint32(hdr[0:]) != frameMagic:
		return Message{}, fmt.Errorf("%w: magic %#x", ErrFrame, le.Uint32(hdr[0:]))
	case hdr[4] != frameVersion:
		return Message{}, fmt.Errorf("%w: version %d, want %d", ErrFrame, hdr[4], frameVersion)
	case hdr[5]&^flagScalars != 0 || le.Uint16(hdr[10:]) != 0:
		return Message{}, fmt.Errorf("%w: unknown flags or reserved bits", ErrFrame)
	case nvec > maxFrameVectors || nscalar > maxFrameScalars:
		return Message{}, fmt.Errorf("%w: %d vectors, %d scalars exceed the caps %d, %d",
			ErrFrame, nvec, nscalar, maxFrameVectors, maxFrameScalars)
	case nscalar > 0 && hdr[5]&flagScalars == 0:
		return Message{}, fmt.Errorf("%w: %d scalars without the scalars flag", ErrFrame, nscalar)
	case rem > d.limit:
		return Message{}, fmt.Errorf("%w: %d-byte body exceeds the cap %d", ErrFrame, rem, d.limit)
	}
	round, scalars := int(int64(le.Uint64(hdr[12:]))), hdr[5]&flagScalars != 0
	if _, err := d.r.Discard(frameHeaderLen); err != nil {
		return Message{}, err
	}

	var strs [3]string
	for i := range strs {
		s, err := d.str(&rem)
		if err != nil {
			return Message{}, err
		}
		strs[i] = s
	}
	// A frame taken here and abandoned on an error below is not put back:
	// the connection is dropped after any error, and the network's list
	// allocates a replacement when it next runs short.
	f, ls := d.frames.take()
	prev := ""
	for i := 0; i < nscalar; i++ {
		k, err := d.str(&rem)
		if err != nil {
			return Message{}, err
		}
		if i > 0 && k <= prev {
			return Message{}, fmt.Errorf("%w: scalar keys not strictly ascending", ErrFrame)
		}
		b, err := d.take(8, &rem)
		if err != nil {
			return Message{}, err
		}
		f.scalars[k], prev = math.Float64frombits(le.Uint64(b)), k
	}
	nfloat := 0
	for i := 0; i < nvec; i++ {
		b, err := d.take(4, &rem)
		if err != nil {
			return Message{}, err
		}
		d.lens[i] = int(le.Uint32(b))
		// Each length is checked as it is summed, so the sum cannot
		// overflow before the comparison.
		if nfloat += d.lens[i]; nfloat > rem/8 {
			return Message{}, fmt.Errorf("%w: vectors declare more values than the body holds", ErrFrame)
		}
	}
	if 8*nfloat != rem {
		return Message{}, fmt.Errorf("%w: body size disagrees with the declared lengths by %d bytes", ErrFrame, rem-8*nfloat)
	}

	f.size(nvec, nfloat)
	for _, n := range d.lens[:nvec] {
		f.next(n)
	}
	// The vectors are carved back to back from one buffer, as their values
	// follow each other on the wire: one read fills them all.
	if _, err := io.ReadFull(d.r, vecbytes.Of(f.data)); err != nil {
		return Message{}, truncated(err)
	}
	if !vecbytes.HostLittleEndian {
		vecbytes.Swap(f.data)
	}
	return f.message(ls, strs[0], strs[1], strs[2], round, scalars), nil
}

// take returns the next n bytes of the frame body (n is far below the
// reader's buffer size), valid until the next read.
func (d *decoder) take(n int, rem *int) ([]byte, error) {
	if n > *rem {
		return nil, fmt.Errorf("%w: field runs past the declared body size", ErrFrame)
	}
	b, err := d.r.Peek(n)
	if err != nil {
		return nil, truncated(err)
	}
	*rem -= n
	_, err = d.r.Discard(n)
	return b, err
}

// str reads one length-prefixed string, interned.
func (d *decoder) str(rem *int) (string, error) {
	b, err := d.take(2, rem)
	if err != nil {
		return "", err
	}
	n := int(binary.LittleEndian.Uint16(b))
	if n > maxFrameString {
		return "", fmt.Errorf("%w: %d-byte string exceeds the cap %d", ErrFrame, n, maxFrameString)
	}
	if b, err = d.take(n, rem); err != nil {
		return "", err
	}
	s, ok := d.names[string(b)]
	if !ok {
		s = string(b)
		if len(d.names) < maxInterned {
			d.names[s] = s
		}
	}
	return s, nil
}

// truncated maps the end of the stream inside a frame to
// io.ErrUnexpectedEOF, keeping io.EOF for a clean end between frames.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
