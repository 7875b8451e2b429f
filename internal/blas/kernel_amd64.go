//go:build amd64

package blas

import "tcqr/internal/cpufeat"

// Assembly micro-kernels for the packed GEMM. Each computes a micro-tile
//
//	acc[r + s·mr] = Σ_l ap[l·mr+r] · bp[l·4+s]
//
// from packed panels, vectorizing over r (rows of C), so each C element
// accumulates its k terms from +0 sequentially in ascending order with one
// rounding per add — the arithmetic of the Go kernel.
//
// The float32 kernels come in two heights, 16×4 on YMM (AVX) and 32×4 on ZMM
// (AVX-512F). Both round every product (VMULPS, then VADDPS): a fused
// multiply-add would give other bits wherever a product is inexact.
//
// One exception, where no product is inexact: the exact-product twin of the
// ZMM tile (tile32x4F32FMA, one VFMADD231PS per product), which the packed
// GEMM takes only when both operands' pack hooks round to binary16
// (PackHook.Binary16). A finite nonzero binary16 value is s·2^e with an
// integer |s| < 2¹¹ and −24 ≤ e, and |x| ≤ 65504 < 2¹⁶, so a product of two
// is an integer of at most 22 bits times 2^(e₁+e₂): its magnitude lies in
// [2⁻⁴⁸, 2³²], inside binary32's normal range, and its significand fits in
// 24 bits. The product is therefore exact, round(a·b) = a·b, and
// round(c + a·b), the fused operation, equals round(c + round(a·b)), the
// mul+add. Zeros, infinities and NaNs give the same result either way (an
// exact ±0 product, ∞·0 the default NaN, a NaN operand absorbing), and the
// tile refuses any NaN result as the others do. bfloat16 keeps mul+add: its
// products span binary32's whole exponent range and can underflow or
// overflow it, where the fused and the separate operations differ.
//
// A full tile is stored by the kernel: α and β are applied in registers with
// writeTile's operations (a product rounded, then a sum), so a stored result
// is writeTile's bits. The kernel stores nothing when any result of the tile
// is NaN (the level-2 rule, level2_amd64.go) and reports it; the caller then
// recomputes the tile into an accumulator block and folds it with writeTile,
// which is also the path of every edge tile.
//
// The float64 kernel is 8×4 on YMM, mul+add, and leaves the write-back to
// writeTile.

// tile16x4F32 computes a 16×4 float32 tile over kb packed groups and writes it
// to c (columns ldc floats apart) as mode says (tileAcc … tileAxpby). It
// returns false, having stored nothing, if mode is not tileAcc and a result
// is NaN.
//
//go:noescape
func tile16x4F32(kb int, ap, bp, c *float32, ldc int, alpha, beta float32, mode int) (ok bool)

// tile32x4F32 is tile16x4F32 at 32×4, on ZMM registers.
//
//go:noescape
func tile32x4F32(kb int, ap, bp, c *float32, ldc int, alpha, beta float32, mode int) (ok bool)

// tile32x4F32FMA is tile32x4F32 with a fused multiply-add per product: its
// bits only for operands whose products are exact, binary16 ones.
//
//go:noescape
func tile32x4F32FMA(kb int, ap, bp, c *float32, ldc int, alpha, beta float32, mode int) (ok bool)

// gemmKernel8x4F64 accumulates an 8×4 float64 tile over kb packed quads.
//
//go:noescape
func gemmKernel8x4F64(kb int, ap, bp, out *float64)

// f32Kernel is the family of every float32 GEMM: ZMM on AVX-512F, else YMM
// on AVX, else Go. useAVXKernels gates the float64 kernel. Both are decided
// once at init from CPUID.
var (
	f32Kernel     = f32Family(cpufeat.AVX, cpufeat.AVX512F)
	useAVXKernels = cpufeat.AVX
)

func f32Family(avx, avx512f bool) kernel {
	switch {
	case avx512f:
		return kernelZMM
	case avx:
		return kernelYMM
	}
	return kernelGo
}
