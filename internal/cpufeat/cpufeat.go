// Package cpufeat is the repository's one CPU-feature probe. The assembly
// kernels each need a different slice of the AVX family, and every one of
// them also needs the operating system to save the YMM registers across
// context switches; this package asks CPUID and XGETBV once, at init, and
// publishes the answers already ANDed with that OS check (and, for AVX512F,
// with the check that the OS saves the opmask and ZMM state). Off amd64 every
// feature is the constant false, so the scalar Go code is all there is.
//
// Three readers, each at its own init: internal/blas picks its float32 GEMM
// micro-kernel from AVX and AVX512F (16×4 YMM or 32×4 ZMM) and runs the
// level-2 kernels (float64 Gemv, float32 transposed Gemv and column update)
// when AVX2 is set, internal/f16 the binary16 rounding kernels when AVX2 and F16C are,
// internal/bf16 the bfloat16 kernel when AVX2 is. None of them can be
// overridden — by flag, environment variable or test — because the vector and
// scalar paths are bit-identical by contract and the tests prove it by
// calling both.
package cpufeat

// Kernels names the kernel set this process runs, for build-info surfaces:
// "avx2+f16c" (AVX GEMM micro-kernels, vector level-2 loops, vector binary16
// and bfloat16 rounding), "avx2" (the same without the binary16 kernels, on
// the rare CPU that has AVX2 but hides F16C), "avx" (AVX micro-kernels,
// scalar level-2 loops and rounding) or "scalar" (portable Go throughout),
// followed by "+avx512f" when the float32 GEMM micro-kernels are 32×4 ZMM
// tiles. Whatever the answer the results are the same bits; only the speed
// differs.
func Kernels() string {
	s := "scalar"
	switch {
	case AVX2 && F16C:
		s = "avx2+f16c"
	case AVX2:
		s = "avx2"
	case AVX:
		s = "avx"
	}
	if AVX512F {
		s += "+avx512f"
	}
	return s
}
