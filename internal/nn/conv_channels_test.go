package nn

import "testing"

// TestConvWeightGradientChannelCounts holds the whole conv layer to the naive
// reference at output-channel counts on both sides of the weight gradient's
// dispatch. tensor.GEMMAddTransB puts four output channels in the four lanes
// of a register, so it hands whole blocks of four channels to the vector
// body (where the CPU has one) and the channels past the last block to the
// portable loop: 8 and 16 (every layer of the zoo) are all blocks, 1 and 3
// are all remainder, 6 is one of each.
func TestConvWeightGradientChannelCounts(t *testing.T) {
	for _, g := range []struct {
		name string
		in   Shape3
	}{
		{"cnn-first", Shape3{C: 1, H: 14, W: 14}}, // K = 9: one patch row past the last tile
		{"cnn-second", Shape3{C: 8, H: 7, W: 7}},  // K = 72, P = 49: odd reduction length
		{"rgb-stem", Shape3{C: 3, H: 6, W: 5}},    // K = 27: three patch rows past the last tile
	} {
		for _, outC := range []int{1, 3, 6, 8, 16} {
			t.Logf("%s outC=%d: %d channels in blocks of four, %d on the portable loop",
				g.name, outC, outC&^3, outC&3)
			for seed := uint64(1); seed <= 3; seed++ {
				runConvEquiv(t, g.in, outC, 3, 1, seed)
			}
		}
	}
}
