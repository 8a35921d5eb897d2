package vecbytes

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"testing"
)

var specialValues = []float64{
	math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8dead0000beef),
	math.Float64frombits(0x7ff00000cafe0001),
	-2.2250738585072009e-308, 5e-324,
	math.MaxFloat64, -math.MaxFloat64, 1, -0.1,
}

// littleEndianBytes is the formats' definition: every value's bits,
// little-endian, back to back.
func littleEndianBytes(v []float64) []byte {
	var b []byte
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func TestHostByteOrder(t *testing.T) {
	one := Of([]float64{1})
	if HostLittleEndian != bytes.Equal(one, littleEndianBytes([]float64{1})) {
		t.Fatalf("HostLittleEndian = %v, but 1.0 is stored as % x", HostLittleEndian, one)
	}
}

func TestOfAliasesTheVector(t *testing.T) {
	v := append([]float64(nil), specialValues...)
	b := Of(v)
	if len(b) != 8*len(v) {
		t.Fatalf("%d bytes for %d values", len(b), len(v))
	}
	if HostLittleEndian && !bytes.Equal(b, littleEndianBytes(v)) {
		t.Fatalf("the view is not the little-endian bytes:\n% x\n% x", b, littleEndianBytes(v))
	}
	// Writes through the view land in the vector, and only in the value
	// they address.
	b[8*2] ^= 0xff
	if math.Float64bits(v[2]) == math.Float64bits(specialValues[2]) {
		t.Error("a write through the view did not reach the vector")
	}
	for i, x := range v {
		if i != 2 && math.Float64bits(x) != math.Float64bits(specialValues[i]) {
			t.Errorf("value %d moved", i)
		}
	}
	if len(Of(nil)) != 0 || len(Of([]float64{})) != 0 || len(Of(v[3:3])) != 0 {
		t.Error("an empty vector has a non-empty view")
	}
}

// TestSwapUndoesByteReversal is the big-endian host's decode, played on any
// host: a vector whose every value holds its own bytes reversed comes back
// bit for bit.
func TestSwapUndoesByteReversal(t *testing.T) {
	v := make([]float64, len(specialValues))
	for i, x := range specialValues {
		v[i] = math.Float64frombits(bits.ReverseBytes64(math.Float64bits(x)))
	}
	Swap(v)
	for i, x := range specialValues {
		if math.Float64bits(v[i]) != math.Float64bits(x) {
			t.Errorf("value %d = %#x, want %#x", i, math.Float64bits(v[i]), math.Float64bits(x))
		}
	}
	Swap(nil)
}
