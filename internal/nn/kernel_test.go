package nn

import (
	"fmt"
	"math"
	"testing"

	"hieradmo/internal/rng"
)

// The vector bodies of the CNN's element-wise passes (kernel_amd64.s)
// against their Go loops, bit for bit: every case runs on two identical
// copies, once with vectorBodies set and once with it cleared. Where the CPU
// or GOARCH has no vector body both runs are the Go loops and the tests pass
// trivially: nothing but the detection selects a body. The pool's bodies are
// held to the scan and the scatter in pool_ref_test.go.

// withBodies runs f with vectorBodies set to on.
func withBodies(on bool, f func()) {
	defer func(was bool) { vectorBodies = was }(vectorBodies)
	vectorBodies = on
	f()
}

// elementSpecials are the values a lane must carry as the Go loop does:
// ties, both zeros, both infinities, NaN (an Inf − Inf in a sum makes the
// other NaN, the machine's default one), subnormals and a word whose only
// set bit is the sign's neighbour.
var elementSpecials = []float64{
	0, math.Copysign(0, -1), 1, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 2, -2,
}

// elementInput draws n values, special-rich on even draws and ordinary on odd
// ones.
func elementInput(r *rng.RNG, n, draw int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if draw%2 == 0 || r.Intn(4) == 0 {
			x[i] = elementSpecials[r.Intn(len(elementSpecials))]
		} else {
			x[i] = r.Norm()
		}
	}
	return x
}

// bitsEqual reports the first index where a and b differ in bits, or -1.
func bitsEqual(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// elementLengths cover no whole block, whole blocks with and without a tail,
// and the two conv output sizes the zoo trains (8×14×14 and 16×7×7).
var elementLengths = []int{0, 1, 3, 4, 5, 8, 11, 64, 1568, 784}

func TestRectifyMatchesGoLoop(t *testing.T) {
	r := rng.New(51)
	for _, n := range elementLengths {
		for draw := 0; draw < 10; draw++ {
			x := elementInput(r, n, draw)
			want, got := append([]float64(nil), x...), append([]float64(nil), x...)
			withBodies(false, func() { rectify(want) })
			withBodies(true, func() { rectify(got) })
			if i := bitsEqual(got, want); i >= 0 {
				t.Fatalf("n %d draw %d: rectify(%v)[%d] = %v, Go loop gives %v", n, draw, x[i], i, got[i], want[i])
			}
		}
	}
}

func TestGateMatchesGoLoop(t *testing.T) {
	r := rng.New(52)
	for _, n := range elementLengths {
		for draw := 0; draw < 10; draw++ {
			out, g := elementInput(r, n, draw), elementInput(r, n, draw)
			want, got := append([]float64(nil), g...), append([]float64(nil), g...)
			withBodies(false, func() { gate(want, out) })
			withBodies(true, func() { gate(got, out) })
			if i := bitsEqual(got, want); i >= 0 {
				t.Fatalf("n %d draw %d: gate at out %v: %v, Go loop gives %v", n, draw, out[i], got[i], want[i])
			}
		}
	}
}

// TestBiasSumsMatchGoLoop covers channel counts with and without whole
// groups of four, and planes with and without whole blocks of four pixels,
// the zoo's two conv outputs among them. A sum that meets two NaNs (an
// Inf − Inf and a NaN input) passes on one of their payloads, chosen by the
// operand order of the addition, which the compiler picks for the Go loop
// (it differs under -race): there a NaN matches any NaN, everywhere else the
// bits must.
func TestBiasSumsMatchGoLoop(t *testing.T) {
	r := rng.New(53)
	for _, sh := range []Shape3{{C: 8, H: 14, W: 14}, {C: 16, H: 7, W: 7}, {C: 4, H: 2, W: 2}, {C: 5, H: 3, W: 3}, {C: 7, H: 1, W: 9}, {C: 3, H: 4, W: 4}, {C: 12, H: 1, W: 3}} {
		t.Run(fmt.Sprintf("%dx%dx%d", sh.C, sh.H, sh.W), func(t *testing.T) {
			for draw := 0; draw < 20; draw++ {
				grad, gb := elementInput(r, sh.Size(), draw), elementInput(r, sh.C, draw+1)
				want, got := append([]float64(nil), gb...), append([]float64(nil), gb...)
				withBodies(false, func() { biasSums(want, grad, sh.H*sh.W) })
				withBodies(true, func() { biasSums(got, grad, sh.H*sh.W) })
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
						t.Fatalf("draw %d: gb[%d] = %v (%#x), Go loop gives %v (%#x)",
							draw, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}
