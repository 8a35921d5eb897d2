package transport

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"testing"
	"testing/iotest"
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

// pinnedMessage is the frame the format digest is taken over: every special
// value, an empty vector, and a vector longer than the connection's buffer.
// The ramp's length is a literal: the digest pins the input too, so it must
// not follow the buffer size.
func pinnedMessage() Message {
	ramp := make([]float64, 9192)
	for i := range ramp {
		ramp[i] = float64(i)*0.1 - 7
	}
	return Message{From: "worker-0-1", To: "edge-0", Kind: "tier-report", Round: -3,
		Vectors: [][]float64{specialValues, {}, ramp},
		Scalars: map[string]float64{"loss": specialValues[3], "weight": 2}}
}

// pinnedFrameDigest is the SHA-256 of pinnedMessage's frame, recorded when
// the values were still converted one by one: the version-1 wire bytes must
// never move.
const pinnedFrameDigest = "92b37f5d69624218716a45cb14b7c6869c95f60f725683687cedd1d169345765"

func TestFrameFormatPinned(t *testing.T) {
	msg := pinnedMessage()
	raw := encodeToBytes(t, msg)
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != pinnedFrameDigest {
		t.Fatalf("frame digest %s, want %s: the version-1 wire bytes moved", got, pinnedFrameDigest)
	}
	back, err := decodeBytes(raw, maxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, back, msg)
}

// TestFrameValuesMatchGeneric holds the byte view to the value-by-value
// conversion it replaced on little-endian hosts: the frame's value section
// is what putValuesGeneric writes, byte for byte.
func TestFrameValuesMatchGeneric(t *testing.T) {
	msg := pinnedMessage()
	raw := encodeToBytes(t, msg)
	var values bytes.Buffer
	w := bufio.NewWriterSize(&values, wireBufSize)
	for _, v := range msg.Vectors {
		if err := putValuesGeneric(w, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := values.Len(); n > len(raw) || !bytes.Equal(raw[len(raw)-n:], values.Bytes()) {
		t.Fatalf("the frame's %d-byte value section differs from the generic encoding", n)
	}
}

// TestDecodeThroughShortReads decodes two frames back to back from readers
// that return one byte, or half of what is asked, per call, so the value
// reads mix bytes from the buffered reader with direct fills; and cuts the
// stream inside the values, which must read as a truncation.
func TestDecodeThroughShortReads(t *testing.T) {
	first, second := pinnedMessage(), reportMessage()
	stream := append(encodeToBytes(t, first), encodeToBytes(t, second)...)
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"one byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
	}
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			d := newDecoder(r.wrap(bytes.NewReader(stream)), maxFrameBytes)
			for _, want := range []Message{first, second} {
				got, err := d.decode()
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, got, want)
			}
			if _, err := d.decode(); err != io.EOF {
				t.Fatalf("after the last frame: err %v, want io.EOF", err)
			}
			for _, cut := range []int{len(stream) - 1, len(stream) - 8*reportDim - 5} {
				d := newDecoder(r.wrap(bytes.NewReader(stream[:cut])), maxFrameBytes)
				if _, err := d.decode(); err != nil {
					t.Fatal(err)
				}
				if msg, err := d.decode(); err != io.ErrUnexpectedEOF {
					t.Errorf("cut at %d: got %+v, err %v; want io.ErrUnexpectedEOF", cut, msg, err)
				}
			}
		})
	}
}
