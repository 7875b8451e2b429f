package f16

import "math"

// The slice helpers below are the pack-time rounding hooks of the TensorCore
// simulator: blas.GemmHooked calls them on every freshly packed operand slab,
// so blocking sends each operand element through them several times per GEMM
// (five matrix-sizes' worth per 2048×512 least squares solve). On amd64 with
// AVX2 and F16C the whole-vector part of a slice goes through the kernels of
// round_amd64.s, eight lanes at a time, and only the n mod 8 tail through the
// scalar loops; everywhere else the scalar loops do all of it. The two paths
// return the same bits and the same counts for every input, NaN payloads
// included — cluster replicas recompute factors on whatever CPU they have and
// must agree — and the scalar loops double as the tests' oracle.
//
// The scalar decode is a 65536-entry lookup table (256 KiB) built at package
// init.

var toF32Table [1 << 16]float32

func init() {
	for i := range toF32Table {
		toF32Table[i] = Float16(i).Float32()
	}
}

// ToFloat32Fast converts h to float32 via the lookup table.
func ToFloat32Fast(h Float16) float32 { return toF32Table[h] }

// vecLen is the length of the prefix of an n-element slice that the vector
// kernels take: the whole multiples of eight, or nothing without them.
func vecLen(n int) int {
	if useVector {
		return n &^ 7
	}
	return 0
}

// RoundSlice writes round16(src[i]) into dst[i] for every element. dst and
// src may be the same slice (not partially overlapping ones). It panics if
// the lengths differ.
func RoundSlice(dst, src []float32) {
	if len(dst) != len(src) {
		panic("f16: RoundSlice length mismatch")
	}
	n := vecLen(len(src))
	if n > 0 {
		roundVec(&dst[0], &src[0], n)
	}
	roundScalar(dst[n:], src[n:])
}

func roundScalar(dst, src []float32) {
	for i, v := range src {
		dst[i] = toF32Table[FromFloat32(v)]
	}
}

// RoundInPlace rounds every element of x through binary16.
func RoundInPlace(x []float32) { RoundSlice(x, x) }

// RoundInPlaceCount rounds every element of x through binary16 and reports
// how many finite elements became infinite and how many nonzero elements
// flushed to zero — CountSpecials fused into the rounding pass, so the
// simulator inspects each operand element exactly once. The counts match
// Overflows/Underflows element-wise (NaNs and ±0 contribute to neither).
func RoundInPlaceCount(x []float32) (overflow, underflow int64) {
	n := vecLen(len(x))
	if n > 0 {
		overflow, underflow = roundCountVec(&x[0], n)
	}
	ov, uf := roundCountScalar(x[n:])
	return overflow + ov, underflow + uf
}

func roundCountScalar(x []float32) (overflow, underflow int64) {
	for i, v := range x {
		h := FromFloat32(v)
		x[i] = toF32Table[h]
		if h&0x7fff == 0x7c00 {
			// Rounded to ±Inf: an overflow only if the input was finite.
			if math.Float32bits(v)&0x7fffffff < 0x7f800000 {
				overflow++
			}
		} else if h&0x7fff == 0 && v != 0 {
			// Rounded to ±0 from a nonzero input (NaN never lands here).
			underflow++
		}
	}
	return overflow, underflow
}

// ResidualInPlace rewrites every element x with the binary16-rounded,
// 2¹¹-shifted residual of its own binary16 rounding,
//
//	fl16((x − fl16(x))·2¹¹),
//
// the lo half of the error-corrected TensorCore's operand split (DESIGN.md
// §16; tcsim.SplitF32 is the per-element definition). Where fl16(x) is
// infinite the residual is defined as +0: the overflow belongs to the hi
// half. Zero stays zero, so packed padding never contributes.
func ResidualInPlace(x []float32) {
	n := vecLen(len(x))
	if n > 0 {
		residualVec(&x[0], n)
	}
	residualScalar(x[n:])
}

func residualScalar(x []float32) {
	for i, v := range x {
		hi := toF32Table[FromFloat32(v)]
		var lo float32
		if math.Float32bits(hi)&0x7fffffff != 0x7f800000 {
			lo = v - hi
		}
		x[i] = toF32Table[FromFloat32(lo*(1/Eps))]
	}
}

// CountSpecials scans x after binary16 rounding and reports how many
// elements overflowed to infinity and how many nonzero elements flushed to
// zero. It is used by the column-scaling safeguard diagnostics.
func CountSpecials(x []float32) (overflow, underflow int) {
	for _, v := range x {
		if Overflows(v) {
			overflow++
		} else if Underflows(v) {
			underflow++
		}
	}
	return overflow, underflow
}
