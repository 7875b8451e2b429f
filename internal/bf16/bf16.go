// Package bf16 implements the bfloat16 floating point format in software:
// 1 sign bit, 8 exponent bits (the same range as binary32), 7 mantissa
// bits. Section 2.1 of the paper contrasts it with IEEE binary16: Google's
// TPU consumes bfloat16, which "has the same range as single precision,
// but its resolution is very limited (there is no bfloat16 number between
// 1 and 1.0078)" — more robust (no overflow below 3.4e38) but less
// precise (unit roundoff 2⁻⁸ vs binary16's 2⁻¹¹).
//
// The package mirrors internal/f16 so the TPU-style engine in
// internal/tcsim can round operands through either format, making the
// paper's FP16-vs-bfloat16 discussion an executable experiment.
package bf16

import "math"

// BFloat16 is a bfloat16 value in its raw bit representation — exactly the
// upper 16 bits of the corresponding binary32 pattern.
type BFloat16 uint16

// Format constants.
const (
	// MaxValue is the largest finite bfloat16 value, ~3.39e38.
	MaxValue = 3.3895313892515355e38
	// MinNormal is the smallest positive normal value, 2^-126.
	MinNormal = 1.1754943508222875e-38
	// Eps is the unit roundoff 2^-8 (half the spacing 2^-7 at 1.0) — about
	// ten times coarser than binary16's 2^-11, the "less stable/precise"
	// half of the paper's trade-off.
	Eps = 1.0 / 256.0
)

// FromFloat32 converts x to bfloat16 with round-to-nearest-even. Because
// bfloat16 is the top half of binary32, the conversion is a 16-bit
// truncation with carry.
func FromFloat32(x float32) BFloat16 {
	b := math.Float32bits(x)
	if b&0x7fffffff > 0x7f800000 { // NaN: keep it quiet and non-zero
		return BFloat16(b>>16) | 0x0040
	}
	// Round to nearest even on the low 16 bits; the carry naturally
	// propagates into the exponent (and to ±Inf at the very top, matching
	// IEEE overflow).
	rem := b & 0xffff
	b >>= 16
	if rem > 0x8000 || (rem == 0x8000 && b&1 == 1) {
		b++
	}
	return BFloat16(b)
}

// Float32 converts h back to float32 exactly.
func (h BFloat16) Float32() float32 {
	return math.Float32frombits(uint32(h) << 16)
}

// Round performs the round trip float32 → bfloat16 → float32.
func Round(x float32) float32 { return FromFloat32(x).Float32() }

// vecLen is the length of the prefix of an n-element slice that the vector
// kernels take: the whole multiples of eight, or nothing without them.
func vecLen(n int) int {
	if useVector {
		return n &^ 7
	}
	return 0
}

// RoundSlice writes Round(src[i]) into dst[i]. dst and src may be the same
// slice (not partially overlapping ones). On amd64 with AVX2 the whole
// multiples of eight go through the kernels of round_amd64.s and the tail
// through the scalar loop; the two return the same bits for every input,
// NaN payloads included, as internal/f16's pair does and for the same reason.
func RoundSlice(dst, src []float32) {
	if len(dst) != len(src) {
		panic("bf16: RoundSlice length mismatch")
	}
	n := vecLen(len(src))
	if n > 0 {
		roundVec(&dst[0], &src[0], n)
	}
	roundScalar(dst[n:], src[n:])
}

func roundScalar(dst, src []float32) {
	for i, v := range src {
		dst[i] = Round(v)
	}
}

// RoundInPlace rounds every element of x through bfloat16.
func RoundInPlace(x []float32) { RoundSlice(x, x) }

// RoundInPlaceCount rounds every element of x through bfloat16 and reports
// how many finite elements became infinite, fusing the Overflows scan into
// the rounding pass. (bfloat16 spans the full float32 exponent range, so
// nothing can flush to zero and no underflow count is needed.)
func RoundInPlaceCount(x []float32) (overflow int64) {
	n := vecLen(len(x))
	if n > 0 {
		overflow = roundCountVec(&x[0], n)
	}
	return overflow + roundCountScalar(x[n:])
}

func roundCountScalar(x []float32) (overflow int64) {
	for i, v := range x {
		h := FromFloat32(v)
		x[i] = h.Float32()
		if h&0x7fff == 0x7f80 && math.Float32bits(v)&0x7fffffff < 0x7f800000 {
			overflow++
		}
	}
	return overflow
}

// IsNaN reports whether h is a NaN.
func (h BFloat16) IsNaN() bool { return h&0x7f80 == 0x7f80 && h&0x007f != 0 }

// IsInf reports whether h is ±Inf.
func (h BFloat16) IsInf() bool { return h&0x7fff == 0x7f80 }

// Overflows reports whether converting x to bfloat16 turns a finite value
// infinite. With binary32 inputs this requires |x| > ~3.39e38, i.e. only
// the top half-ulp of the float32 range — the practical reading of the
// paper's "bfloat16 is more robust".
func Overflows(x float32) bool {
	if math.IsInf(float64(x), 0) || math.IsNaN(float64(x)) {
		return false
	}
	return FromFloat32(x).IsInf()
}
