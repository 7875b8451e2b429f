package bf16

import (
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/roundtest"
)

// TestRoundInPlaceCountMatchesSeparatePasses: the fused round+count pass
// must produce exactly RoundSlice's values and an overflow tally identical
// to an Overflows scan, including at the very top of the float32 range and
// on the roundtest.Classes table.
func TestRoundInPlaceCountMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := make([]float32, 4096)
	for i := range x {
		switch rng.Intn(10) {
		case 0:
			x[i] = 3.4e38 * float32(1-2*rng.Intn(2)) // rounds past MaxValue → ±Inf
		case 1:
			x[i] = float32(math.Inf(1 - 2*rng.Intn(2))) // already infinite: not an overflow
		case 2:
			x[i] = float32(math.NaN())
		case 3:
			x[i] = float32(rng.NormFloat64()) * 1e38 // large but survives bfloat16
		default:
			x[i] = float32(rng.NormFloat64())
		}
	}
	// The hard cases by name, after the random draw: ties, the saturation
	// edge, subnormals, and NaNs of every payload shape.
	for _, b := range roundtest.Classes {
		x = append(x, math.Float32frombits(b))
	}
	var wantOv int64
	for _, v := range x {
		if Overflows(v) {
			wantOv++
		}
	}
	want := append([]float32(nil), x...)
	RoundInPlace(want)
	got := append([]float32(nil), x...)
	ov := RoundInPlaceCount(got)
	if ov != wantOv {
		t.Errorf("overflow count %d, want %d", ov, wantOv)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("fused rounding differs at %d: %x vs %x (input %v)",
				i, math.Float32bits(got[i]), math.Float32bits(want[i]), x[i])
		}
	}
}
