// Package vecbytes views a float64 vector as the bytes the wire frame
// (internal/transport) and the snapshot (internal/checkpoint) store it as:
// each value's IEEE 754 bits, little-endian, back to back. On a
// little-endian host those bytes are the vector's own memory, so encoding is
// one copy out of it and decoding one read into it. On a big-endian host the
// encoders keep their value-by-value loops, and a vector whose memory was
// filled with the stored bytes is put right in place with Swap.
package vecbytes

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// HostLittleEndian reports whether this host's float64 memory is the formats'
// little-endian bytes. It is decided once, at start-up.
var HostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Of returns the memory of v: 8*len(v) bytes that alias it, so writing them
// writes v. It is empty for an empty v.
func Of(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// Swap reverses the byte order of every value of v in place, working on the
// bits alone. On a big-endian host it turns a vector read as little-endian
// bytes into its values.
func Swap(v []float64) {
	b := Of(v)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], bits.ReverseBytes64(binary.LittleEndian.Uint64(b[i:])))
	}
}
