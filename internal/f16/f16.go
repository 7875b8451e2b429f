// Package f16 implements the IEEE 754 binary16 ("half precision") floating
// point format in software. It is the numerical foundation of the TensorCore
// simulator: NVIDIA's tensor cores consume FP16 operands produced by
// round-to-nearest-even conversion (__float2half_rn), with values above
// 65504 in magnitude converting to ±Inf — the overflow hazard that Section
// 3.5 of the paper guards against with column scaling.
//
// The package provides bit-exact conversions in both directions (including
// gradual underflow to subnormals and NaN payload preservation), scalar
// constants of the format, and vectorized rounding helpers used by the GEMM
// simulator.
package f16

import "math"

// Float16 is an IEEE binary16 value in its raw bit representation:
// 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
type Float16 uint16

// Format constants.
const (
	// MaxValue is the largest finite binary16 value, (2-2^-10)·2^15.
	MaxValue = 65504.0
	// MinNormal is the smallest positive normal binary16 value, 2^-14.
	MinNormal = 6.103515625e-05
	// MinSubnormal is the smallest positive binary16 value, 2^-24.
	MinSubnormal = 5.9604644775390625e-08
	// Eps is the unit roundoff of binary16: 2^-11 (half the machine epsilon
	// 2^-10, for round-to-nearest). The paper's error bounds are stated in
	// terms of this unit roundoff.
	Eps = 1.0 / 2048.0
	// EpsF32 is the binary32 unit roundoff 2^-24, for comparison in the
	// mixed-precision error analyses.
	EpsF32 = 1.0 / 16777216.0
)

// Bit patterns for special values.
const (
	PositiveInfinity Float16 = 0x7c00
	NegativeInfinity Float16 = 0xfc00
	quietNaN         Float16 = 0x7e00
)

// FromFloat32 converts x to binary16 with round-to-nearest-even, the same
// semantics as CUDA __float2half_rn. Values whose rounded magnitude exceeds
// MaxValue become ±Inf; tiny values flush gradually through subnormals to
// signed zero.
func FromFloat32(x float32) Float16 {
	b := math.Float32bits(x)
	sign := Float16((b >> 16) & 0x8000)
	abs := b & 0x7fffffff

	if abs >= 0x7f800000 { // Inf or NaN
		if abs > 0x7f800000 { // NaN: preserve high payload bits, keep quiet
			m := Float16((abs >> 13) & 0x03ff)
			if m == 0 {
				m = 0x0200
			}
			return sign | 0x7c00 | m
		}
		return sign | PositiveInfinity
	}

	exp := int32(abs>>23) - 127 // unbiased exponent
	mant := abs & 0x007fffff

	switch {
	case exp >= 16:
		// Magnitude ≥ 2^16 = 65536 > MaxValue: rounds to infinity.
		return sign | PositiveInfinity
	case exp >= -14:
		// Normal range (rounding may still carry into the exponent and,
		// at the very top, into infinity — which is the IEEE behaviour).
		h := uint32(exp+15)<<10 | mant>>13
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && h&1 == 1) {
			h++
		}
		return sign | Float16(h)
	case exp >= -25:
		// Subnormal half (or rounds up to MinNormal). The value is
		// m·2^(exp-23) with the implicit bit restored; the target is an
		// integer count of MinSubnormal = 2^-24 units.
		m := mant | 0x00800000
		shift := uint32(-(exp + 1)) // in [14, 24]
		hm := m >> shift
		rem := m & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && hm&1 == 1) {
			hm++
		}
		return sign | Float16(hm)
	default:
		// Below half of the smallest subnormal: rounds to signed zero.
		return sign
	}
}

// FromFloat64 converts x to binary16 with a single round-to-nearest-even.
// It narrows to float32 first, but with round-to-odd (truncate, then set the
// last bit if anything was lost), not to nearest: a nearest rounding can land
// exactly on a binary16 tie that x was only close to, and FromFloat32 would
// then break the tie the wrong way (1 + 2⁻¹¹ + 2⁻³⁰ must give 0x3c01, not
// 0x3c00). An odd last bit keeps the intermediate off every tie and on the
// side of it x was on; that needs two bits more than binary16's 11, and
// float32 has 24. The GEMM simulator only ever converts float32 data; this
// helper exists for the float64 front ends.
func FromFloat64(x float64) Float16 {
	f := float32(x)
	if float64(f) != x && x == x { // inexact, not NaN
		b := math.Float32bits(f)
		if math.Abs(float64(f)) > math.Abs(x) {
			b-- // rounded away from zero (possibly to Inf): step back
		}
		f = math.Float32frombits(b | 1)
	}
	return FromFloat32(f)
}

// Float32 converts h back to float32 exactly (every binary16 value is
// exactly representable in binary32).
func (h Float16) Float32() float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign) // ±0
		}
		// Subnormal: normalize into binary32.
		e := uint32(113) // biased exponent of 2^-14
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case exp == 0x1f:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7f800000) // ±Inf
		}
		return math.Float32frombits(sign | 0x7f800000 | mant<<13) // NaN
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | mant<<13)
	}
}

// Float64 converts h to float64 exactly.
func (h Float16) Float64() float64 { return float64(h.Float32()) }

// IsNaN reports whether h is a NaN.
func (h Float16) IsNaN() bool { return h&0x7c00 == 0x7c00 && h&0x03ff != 0 }

// IsInf reports whether h is infinite. sign > 0 tests for +Inf, sign < 0 for
// -Inf, and sign == 0 for either.
func (h Float16) IsInf(sign int) bool {
	switch {
	case sign > 0:
		return h == PositiveInfinity
	case sign < 0:
		return h == NegativeInfinity
	default:
		return h&0x7fff == 0x7c00
	}
}

// IsFinite reports whether h is neither infinite nor NaN.
func (h Float16) IsFinite() bool { return h&0x7c00 != 0x7c00 }

// IsSubnormal reports whether h is subnormal (nonzero with zero exponent).
func (h Float16) IsSubnormal() bool { return h&0x7c00 == 0 && h&0x03ff != 0 }

// Neg returns -h.
func (h Float16) Neg() Float16 { return h ^ 0x8000 }

// Round performs the round trip float32 → binary16 → float32. This is the
// elementary operation the TensorCore simulator applies to every GEMM
// operand.
func Round(x float32) float32 { return FromFloat32(x).Float32() }

// Overflows reports whether converting x to binary16 would produce an
// infinity from a finite input — the overflow catastrophe of Section 3.5.
func Overflows(x float32) bool {
	if math.IsInf(float64(x), 0) || math.IsNaN(float64(x)) {
		return false
	}
	return FromFloat32(x).IsInf(0)
}

// Underflows reports whether a nonzero finite x converts to zero in
// binary16 (complete underflow; gradual underflow to subnormals does not
// count).
func Underflows(x float32) bool {
	return x != 0 && !math.IsNaN(float64(x)) && FromFloat32(x)&0x7fff == 0
}
