package f16

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKnownConversions(t *testing.T) {
	cases := []struct {
		in   float32
		want Float16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},                                                             // MaxValue
		{-65504, 0xfbff},                                                            // -MaxValue
		{65536, 0x7c00},                                                             // overflows to +Inf
		{-70000, 0xfc00},                                                            // overflows to -Inf
		{6.103515625e-05, 0x0400} /* MinNormal */, {5.9604644775390625e-08, 0x0001}, // MinSubnormal
		{float32(math.Inf(1)), 0x7c00},
		{float32(math.Inf(-1)), 0xfc00},
		{0.333251953125, 0x3555}, // nearest half to 1/3
	}
	for _, c := range cases {
		if got := FromFloat32(c.in); got != c.want {
			t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.in, got, c.want)
		}
	}
}

func TestOverflowBoundary(t *testing.T) {
	// 65519.996... is the largest float32 below the rounding boundary 65520:
	// everything strictly below 65520 rounds down to MaxValue.
	if got := FromFloat32(65519.0); got != 0x7bff {
		t.Errorf("65519 should round to MaxValue, got %#04x", got)
	}
	// 65520 is exactly halfway between 65504 and "65536"; ties-to-even on the
	// would-be mantissa carries into infinity per IEEE.
	if got := FromFloat32(65520.0); !got.IsInf(1) {
		t.Errorf("65520 should round to +Inf, got %#04x", got)
	}
	if !Overflows(65521) {
		t.Error("Overflows(65521) = false, want true")
	}
	if Overflows(65504) {
		t.Error("Overflows(65504) = true, want false")
	}
	if Overflows(float32(math.Inf(1))) {
		t.Error("Overflows(+Inf) must be false: input was already infinite")
	}
}

func TestUnderflowBoundary(t *testing.T) {
	// Exactly half of the smallest subnormal ties to even = zero.
	half := float32(MinSubnormal / 2)
	if got := FromFloat32(half); got != 0 {
		t.Errorf("2^-25 should round to zero (tie to even), got %#04x", got)
	}
	if got := FromFloat32(half * 1.0001); got != 0x0001 {
		t.Errorf("slightly above 2^-25 should round to MinSubnormal, got %#04x", got)
	}
	if !Underflows(half) {
		t.Error("Underflows(2^-25) = false, want true")
	}
	if Underflows(float32(MinSubnormal)) {
		t.Error("Underflows(MinSubnormal) = true, want false")
	}
	if Underflows(0) {
		t.Error("Underflows(0) = true, want false")
	}
}

func TestRoundToNearestEvenTies(t *testing.T) {
	// 1 + 2^-11 is exactly between 1 (mantissa 0, even) and 1+2^-10
	// (mantissa 1, odd): must round down.
	x := float32(1 + 1.0/2048)
	if got := Round(x); got != 1 {
		t.Errorf("Round(1+2^-11) = %v, want 1 (tie to even)", got)
	}
	// 1 + 3·2^-11 is between mantissa 1 (odd) and mantissa 2 (even): up.
	x = float32(1 + 3.0/2048)
	want := float32(1 + 2.0/1024)
	if got := Round(x); got != want {
		t.Errorf("Round(1+3·2^-11) = %v, want %v (tie to even)", got, want)
	}
}

func TestRoundTripAllBitPatterns(t *testing.T) {
	// Every finite binary16 value must survive h → f32 → h unchanged, and
	// the conversion table must agree with the arithmetic path.
	for i := 0; i < 1<<16; i++ {
		h := Float16(i)
		f := h.Float32()
		if ToFloat32Fast(h) != f && !(h.IsNaN() && math.IsNaN(float64(ToFloat32Fast(h)))) {
			t.Fatalf("table mismatch at %#04x", i)
		}
		if h.IsNaN() {
			if !math.IsNaN(float64(f)) {
				t.Fatalf("%#04x: NaN pattern decoded to %v", i, f)
			}
			continue
		}
		if got := FromFloat32(f); got != h {
			t.Fatalf("round trip %#04x -> %v -> %#04x", i, f, got)
		}
	}
}

func TestNaNHandling(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if !h.IsNaN() {
		t.Fatalf("FromFloat32(NaN) = %#04x, not NaN", h)
	}
	if !math.IsNaN(float64(h.Float32())) {
		t.Fatal("NaN did not survive round trip")
	}
	if h.IsFinite() || h.IsInf(0) {
		t.Fatal("NaN misclassified")
	}
}

func TestClassification(t *testing.T) {
	if !FromFloat32(1e-6).IsSubnormal() {
		t.Error("1e-6 should be subnormal in binary16")
	}
	if FromFloat32(1).IsSubnormal() {
		t.Error("1 misclassified as subnormal")
	}
	if !FromFloat32(1).IsFinite() {
		t.Error("1 should be finite")
	}
	if got := FromFloat32(2).Neg(); got != FromFloat32(-2) {
		t.Errorf("Neg(2) = %#04x", got)
	}
}

func TestRelativeErrorBound(t *testing.T) {
	// For x in the normal range of binary16, |round(x)-x| <= Eps·|x|.
	f := func(x float32) bool {
		ax := math.Abs(float64(x))
		if ax < MinNormal || ax > MaxValue || math.IsNaN(float64(x)) {
			return true
		}
		r := float64(Round(x))
		return math.Abs(r-float64(x)) <= Eps*ax*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestRoundIdempotentAndMonotone(t *testing.T) {
	idem := func(x float32) bool {
		if math.IsNaN(float64(x)) {
			return true
		}
		r := Round(x)
		return Round(r) == r
	}
	if err := quick.Check(idem, &quick.Config{MaxCount: 20000}); err != nil {
		t.Errorf("idempotence: %v", err)
	}
	mono := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		ra, rb := float64(Round(a)), float64(Round(b))
		return ra <= rb || (math.IsNaN(ra) || math.IsNaN(rb))
	}
	if err := quick.Check(mono, &quick.Config{MaxCount: 20000}); err != nil {
		t.Errorf("monotonicity: %v", err)
	}
}

func TestSignSymmetry(t *testing.T) {
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) {
			return true
		}
		return FromFloat32(-x) == FromFloat32(x)^0x8000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	src := []float32{0, 1, -1, 1e-9, 70000, -70000, 0.1, 65504}
	dst := make([]float32, len(src))
	RoundSlice(dst, src)
	for i, v := range src {
		if want := Round(v); dst[i] != want && !(math.IsNaN(float64(dst[i])) && math.IsNaN(float64(want))) {
			t.Errorf("RoundSlice[%d] = %v, want %v", i, dst[i], want)
		}
	}
	ov, uf := CountSpecials(src)
	if ov != 2 || uf != 1 {
		t.Errorf("CountSpecials = (%d, %d), want (2, 1)", ov, uf)
	}
	inPlace := append([]float32(nil), src...)
	RoundInPlace(inPlace)
	for i := range inPlace {
		if inPlace[i] != dst[i] {
			t.Errorf("RoundInPlace[%d] = %v, want %v", i, inPlace[i], dst[i])
		}
	}
}

func TestFromFloat64(t *testing.T) {
	if FromFloat64(1.0) != 0x3c00 {
		t.Error("FromFloat64(1) wrong")
	}
	if !FromFloat64(1e300).IsInf(1) {
		t.Error("FromFloat64(1e300) should be +Inf")
	}
	if FromFloat16RoundTrip := FromFloat64(0.1); FromFloat16RoundTrip != FromFloat32(0.1) {
		t.Error("FromFloat64(0.1) disagrees with FromFloat32")
	}
	// Values a float64 → float32 → binary16 double rounding gets wrong: the
	// float32 step lands exactly on a binary16 tie (or on the overflow
	// threshold) and the second rounding then goes the other way.
	cases := []struct {
		name string
		in   float64
		want Float16
	}{
		{"just above the tie at 1", 1 + 0x1p-11 + 0x1p-30, 0x3c01},
		{"its negative", -(1 + 0x1p-11 + 0x1p-30), 0xbc01},
		{"just below the tie at 1", 1 + 0x1p-11 - 0x1p-30, 0x3c00},
		{"the tie itself goes to even", 1 + 0x1p-11, 0x3c00},
		{"subnormal range, just above 2.5 units", 0x1p-24 * (2.5 + 0x1p-30), 0x0003},
		{"subnormal range, the tie at 2.5 units", 0x1p-24 * 2.5, 0x0002},
		{"just below the overflow threshold", 65520 - 0x1p-30, 0x7bff},
		{"the overflow threshold", 65520, 0x7c00},
		{"below half the smallest subnormal", 0x1p-25 - 0x1p-70, 0x0000},
		{"just above half the smallest subnormal", 0x1p-25 + 0x1p-70, 0x0001},
		{"beyond float32 range, negative", -1e300, 0xfc00},
		{"below float32 range keeps its sign", -1e-300, 0x8000},
		{"-Inf", math.Inf(-1), 0xfc00},
	}
	for _, c := range cases {
		got := FromFloat64(c.in)
		if got != c.want {
			t.Errorf("%s: FromFloat64(%b) = %#04x, want %#04x", c.name, c.in, got, c.want)
		}
		if ref := refRound16(c.in); got.Float64() != ref || math.Signbit(got.Float64()) != math.Signbit(ref) {
			t.Errorf("%s: FromFloat64(%b) = %v, reference rounds to %v", c.name, c.in, got.Float64(), ref)
		}
	}
	if !FromFloat64(math.NaN()).IsNaN() {
		t.Error("FromFloat64(NaN) is not a NaN")
	}
	// Every midpoint between adjacent finite binary16 magnitudes (and the
	// overflow threshold past the last), nudged by one part in 2⁴⁰ either
	// way: closer to the tie than float32 can tell.
	for h := Float16(0); h <= 0x7bff; h++ {
		mid := (h.Float64() + 65536) / 2
		if h < 0x7bff {
			mid = (h.Float64() + (h + 1).Float64()) / 2
		}
		for _, x := range []float64{mid * (1 - 0x1p-40), mid, mid * (1 + 0x1p-40), -mid * (1 + 0x1p-40)} {
			got, ref := FromFloat64(x).Float64(), refRound16(x)
			if got != ref || math.Signbit(got) != math.Signbit(ref) {
				t.Fatalf("FromFloat64(%b) = %v, reference rounds to %v (midpoint above %#04x)", x, got, ref, uint16(h))
			}
		}
	}
}

func TestEpsConstant(t *testing.T) {
	// 1 + 2ε must be the next representable value above 1; 1 + ε must not
	// round up past it.
	next := Float16(0x3c01).Float64()
	if next != 1+2*Eps {
		t.Errorf("next after 1 = %v, want %v", next, 1+2*Eps)
	}
}
