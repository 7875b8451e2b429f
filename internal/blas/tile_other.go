//go:build !amd64

package blas

// Non-amd64 platforms run the MGS tile and the GemmBatch body in Go. A
// variable, as on amd64, for the tests that set it per family.
var tileKernel = kernelGo

func mgsNormF32(m int, c *float32) float32 {
	panic("blas: vector kernel called on non-amd64 platform")
}

func mgsStepF32(m int, w, qp, nd, q, c, out *float32, nv, next int, mk *uint32) {
	panic("blas: vector kernel called on non-amd64 platform")
}

func mgsStepZ(m int, w, qp, nd, q, c, out *float32, nv, next int, bits uint32) {
	panic("blas: vector kernel called on non-amd64 platform")
}

func amaxF32(n int, x *float32) float32 {
	panic("blas: vector kernel called on non-amd64 platform")
}

func scaleF32(n int, x *float32, alpha float32, y *float32) {
	panic("blas: vector kernel called on non-amd64 platform")
}

func transposeF32x8(rows int, src *float32, lds int, dst *float32) {
	panic("blas: vector kernel called on non-amd64 platform")
}

func gemmNN8F32(m, k int, a *float32, lda int, t *float32, c *float32, ldc int, beta float32, mode int) int {
	panic("blas: vector kernel called on non-amd64 platform")
}

func gemmNN16F32(m, k int, a *float32, lda int, t *float32, c *float32, ldc int, beta float32, mode int) int {
	panic("blas: vector kernel called on non-amd64 platform")
}
