//go:build !amd64

package blas

// Non-amd64 platforms use the generic scalar micro-kernel everywhere.
const (
	f32Kernel     = kernelGo
	useAVXKernels = false
)

func tile16x4F32(kb int, ap, bp, c *float32, ldc int, alpha, beta float32, mode int) bool {
	panic("blas: AVX kernel called on non-amd64 platform")
}

func tile32x4F32(kb int, ap, bp, c *float32, ldc int, alpha, beta float32, mode int) bool {
	panic("blas: AVX kernel called on non-amd64 platform")
}

func tile32x4F32FMA(kb int, ap, bp, c *float32, ldc int, alpha, beta float32, mode int) bool {
	panic("blas: AVX kernel called on non-amd64 platform")
}

func gemmKernel8x4F64(kb int, ap, bp, out *float64) {
	panic("blas: AVX kernel called on non-amd64 platform")
}
