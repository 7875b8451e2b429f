package f16

import (
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/roundtest"
)

// TestRoundInPlaceCountMatchesSeparatePasses: the fused round+count pass
// must produce exactly RoundInPlace's values and CountSpecials' tallies,
// across ordinary values, overflow/underflow magnitudes, infinities, NaNs,
// signed zeros, and the roundtest.Classes table.
func TestRoundInPlaceCountMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := make([]float32, 4096)
	for i := range x {
		switch rng.Intn(12) {
		case 0:
			x[i] = float32(rng.NormFloat64()) * 1e6 // overflows fp16
		case 1:
			x[i] = float32(rng.NormFloat64()) * 1e-9 // underflows fp16
		case 2:
			x[i] = float32(math.Inf(1 - 2*rng.Intn(2))) // already infinite: not an overflow
		case 3:
			x[i] = float32(math.NaN()) // counts as neither
		case 4:
			x[i] = float32(math.Copysign(0, -1)) // -0: not an underflow
		case 5:
			x[i] = 65504 * (1 + float32(rng.Float64())*0.01) // straddles MaxValue
		case 6:
			x[i] = MinSubnormal * float32(rng.Float64()) // straddles the flush threshold
		default:
			x[i] = float32(rng.NormFloat64())
		}
	}
	// The hard cases by name, after the random draw: ties, the saturation
	// edge, subnormals, and NaNs of every payload shape.
	for _, b := range roundtest.Classes {
		x = append(x, math.Float32frombits(b))
	}
	wantOv, wantUf := CountSpecials(x)
	want := append([]float32(nil), x...)
	RoundInPlace(want)
	got := append([]float32(nil), x...)
	ov, uf := RoundInPlaceCount(got)
	if ov != int64(wantOv) || uf != int64(wantUf) {
		t.Errorf("counts ov=%d uf=%d, want ov=%d uf=%d", ov, uf, wantOv, wantUf)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("fused rounding differs at %d: %x vs %x (input %v)",
				i, math.Float32bits(got[i]), math.Float32bits(want[i]), x[i])
		}
	}
}
