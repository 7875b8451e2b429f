package bf16

import (
	"math"
	"testing"

	"tcqr/internal/roundtest"
)

// refRoundBF is an independent float64 reference for the bfloat16 rounding
// in FromFloat32: round-to-nearest-even onto a 7-mantissa-bit grid with the
// full binary32 exponent range, saturating to ±Inf past MaxValue. It shares
// no code with the truncate-with-carry implementation under test.
func refRoundBF(x float32) float64 {
	v := float64(x)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	sign := 1.0
	if math.Signbit(v) {
		sign = -1
	}
	abs := math.Abs(v)
	var ulp float64
	if abs < math.Ldexp(1, -126) {
		ulp = math.Ldexp(1, -133) // subnormal spacing: 2^-126 · 2^-7
	} else {
		_, exp := math.Frexp(abs)    // abs = f·2^exp, f ∈ [0.5, 1)
		ulp = math.Ldexp(1, exp-1-7) // 7 mantissa bits: spacing 2^(e-7)
	}
	r := math.RoundToEven(abs/ulp) * ulp
	if r > MaxValue {
		return sign * math.Inf(1)
	}
	return sign * r
}

// elementwise holds the slice entry points to the per-element scalar
// functions FuzzBF16RoundTrip checks against the reference: Round for the
// values, Overflows for the count.
var elementwise = []roundtest.Kernel{
	{
		Name:     "RoundInPlace",
		Dispatch: roundtest.Uncounted(RoundInPlace),
		Scalar: roundtest.Uncounted(func(x []float32) {
			for i, v := range x {
				x[i] = Round(v)
			}
		}),
	},
	{
		Name:     "RoundInPlaceCount",
		Dispatch: func(x []float32) (int64, int64) { return RoundInPlaceCount(x), 0 },
		Scalar: func(x []float32) (overflow, _ int64) {
			for i, v := range x {
				if Overflows(v) {
					overflow++
				}
				x[i] = Round(v)
			}
			return overflow, 0
		},
	},
}

// FuzzBF16RoundTrip cross-checks the float32 → bfloat16 → float32 round
// trip against the float64 reference above, plus idempotence, the overflow
// classifier, and the fused RoundInPlaceCount overflow counter, and then
// sends the same value through the slice kernels at each of the eight
// vector lanes.
func FuzzBF16RoundTrip(f *testing.F) {
	seeds := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		1.0078125,  // 1 + 2^-7, smallest step above 1
		1.00390625, // 1 + 2^-8, exactly halfway: ties to even (1)
		MaxValue,
		3.3961775e38,    // rounds to +Inf (above the midpoint)
		math.MaxFloat32, // top of float32: overflows bfloat16
		MinNormal,       // 2^-126
		1e-40, 1.4e-45,  // float32 subnormals
		3.14159265, 0.1, 65504,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, x float32) {
		got := float64(Round(x))
		want := refRoundBF(x)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("Round(NaN input %x) = %v, want NaN", math.Float32bits(x), got)
			}
		} else if got != want || math.Signbit(got) != math.Signbit(want) {
			t.Fatalf("Round(%v) = %v, want %v", x, got, want)
		}

		h := FromFloat32(x)
		if !h.IsNaN() {
			if h2 := FromFloat32(h.Float32()); h2 != h {
				t.Fatalf("round trip not idempotent: %#04x -> %#04x (input %v)", uint16(h), uint16(h2), x)
			}
		}

		finiteIn := !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0)
		wantOvf := finiteIn && math.IsInf(want, 0)
		if ovf := Overflows(x); ovf != wantOvf {
			t.Fatalf("Overflows(%v) = %v, reference rounds to %v", x, ovf, want)
		}
		// The fused rounding-plus-counting pass must agree elementwise.
		buf := []float32{x}
		n := RoundInPlaceCount(buf)
		var wantCount int64
		if wantOvf {
			wantCount = 1
		}
		if n != wantCount {
			t.Fatalf("RoundInPlaceCount(%v) counted %d overflows, want %d", x, n, wantCount)
		}
		if !math.IsNaN(want) && float64(buf[0]) != want {
			t.Fatalf("RoundInPlaceCount rounded %v to %v, want %v", x, buf[0], want)
		}

		for _, k := range elementwise {
			roundtest.Lanes(t, k, x)
		}
	})
}
