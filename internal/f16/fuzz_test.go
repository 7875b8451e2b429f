package f16

import (
	"math"
	"testing"

	"tcqr/internal/roundtest"
)

// refRound16 is an independent float64 reference for the binary16 rounding
// in FromFloat32 and FromFloat64 (every float32 is a float64, so one
// reference serves both): round-to-nearest-even onto the binary16 grid, saturating
// to ±Inf past MaxValue = 65504 and flushing gradually through subnormals
// (spacing 2^-24) to signed zero. It shares no code with the bit-twiddling
// implementation under test.
func refRound16(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	sign := 1.0
	if math.Signbit(v) {
		sign = -1
	}
	abs := math.Abs(v)
	var ulp float64
	if abs < math.Ldexp(1, -14) {
		ulp = math.Ldexp(1, -24) // subnormal spacing
	} else {
		_, exp := math.Frexp(abs)     // abs = f·2^exp, f ∈ [0.5, 1)
		ulp = math.Ldexp(1, exp-1-10) // 10 mantissa bits: spacing 2^(e-10)
	}
	r := math.RoundToEven(abs/ulp) * ulp
	if r > MaxValue {
		return sign * math.Inf(1)
	}
	return sign * r
}

// elementwise holds the slice entry points to the per-element scalar
// functions FuzzF16RoundTrip checks against the reference: Round for the
// values, Overflows and Underflows for the counts.
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
		Dispatch: RoundInPlaceCount,
		Scalar: func(x []float32) (overflow, underflow int64) {
			for i, v := range x {
				if Overflows(v) {
					overflow++
				} else if Underflows(v) {
					underflow++
				}
				x[i] = Round(v)
			}
			return overflow, underflow
		},
	},
}

// FuzzF16RoundTrip cross-checks the float32 → binary16 → float32 round trip
// against the float64 reference above, plus the idempotence and classifier
// invariants the TensorCore simulator relies on, and then sends the same
// value through the slice kernels at each of the eight vector lanes.
func FuzzF16RoundTrip(f *testing.F) {
	seeds := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		1.0009765625,       // 1 + 2^-10, smallest step above 1
		1.00048828125,      // 1 + 2^-11, exactly halfway: ties to even (1)
		MaxValue,           // largest finite half
		65519.996,          // just below the overflow threshold
		65520,              // rounds to +Inf
		-70000,             // far past the threshold
		MinNormal,          // 2^-14
		MinSubnormal,       // 2^-24
		MinSubnormal / 2,   // halfway to zero: ties to even (0)
		MinSubnormal * 1.5, // halfway between subnormals
		3.14159265, 0.1, 1e-7, 1e30,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, x float32) {
		got := float64(Round(x))
		want := refRound16(float64(x))
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("Round(NaN input %x) = %v, want NaN", math.Float32bits(x), got)
			}
		} else if got != want || math.Signbit(got) != math.Signbit(want) {
			t.Fatalf("Round(%v) = %v, want %v", x, got, want)
		}

		// A second trip through the format must be exact (every binary16
		// value is representable in float32).
		h := FromFloat32(x)
		if !h.IsNaN() {
			if h2 := FromFloat32(h.Float32()); h2 != h {
				t.Fatalf("round trip not idempotent: %#04x -> %#04x (input %v)", uint16(h), uint16(h2), x)
			}
		}

		// Classifier invariants against the reference outcome.
		finiteIn := !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0)
		if ovf := Overflows(x); ovf != (finiteIn && math.IsInf(want, 0)) {
			t.Fatalf("Overflows(%v) = %v, reference rounds to %v", x, ovf, want)
		}
		if uf := Underflows(x); uf != (finiteIn && x != 0 && want == 0) {
			t.Fatalf("Underflows(%v) = %v, reference rounds to %v", x, uf, want)
		}
		if h.IsFinite() && math.Abs(got) > MaxValue {
			t.Fatalf("finite half %v above MaxValue", got)
		}

		for _, k := range elementwise {
			roundtest.Lanes(t, k, x)
		}
	})
}
