//go:build amd64

package blas

import "tcqr/internal/cpufeat"

// Kernels of tile_amd64.s: the pieces of the float32 MGS tile (MGSTile) and
// the register-blocked body of a NoTrans/NoTrans GemmBatch problem. They
// follow the rules of level2_amd64.go — separate multiply and add, the Go
// loop's operations in the Go loop's order, no stored NaN — and need AVX2.
//
// tileKernel is their family, decided once at init from CPUID: ZMM on
// AVX-512F (the row pass of the tile and the GEMM body on sixteen lanes with
// opmask registers), else YMM on AVX2, else Go. The norm is a chain of
// dependent scalar adds and runs on YMM in both. Every family returns the Go
// loops' bits; the tests set tileKernel to each one the host runs and
// compare. BenchmarkMGSTile256x32 and BenchmarkGemmBatchBodies8x256x32 run
// each family; on a 2-vCPU AMD EPYC guest with AVX-512 (GOMAXPROCS 1, median
// of five runs) ZMM factors the 256×32 tile in 11.0 µs against YMM's 14.1 µs
// and runs the eight products in 25.8 µs against 42.8 µs. YMM stays for
// hosts with AVX2 and no AVX-512.
var tileKernel = f32Family(cpufeat.AVX2, cpufeat.AVX2 && cpufeat.AVX512F)

// mgsNormF32 returns Nrm2(c[0:m]) with Nrm2's bits when the result is finite.
//
//go:noescape
func mgsNormF32(m int, c *float32) float32

// mgsStepF32 is one pass over the rows of the row-major tile w (32 floats a
// row) for step k, over nv eight-lane vectors: it applies the pending update
// of step k−1, w ← w + qp[i]·nd in the lanes mk marks, then adds q[i]·w to
// the sums out (from +0) and copies lane next of each updated row to c[i].
//
//go:noescape
func mgsStepF32(m int, w, qp, nd, q, c, out *float32, nv, next int, mk *uint32)

// mgsStepZ is mgsStepF32 over nv sixteen-lane vectors, the lanes of the
// update marked by the bits of bits.
//
//go:noescape
func mgsStepZ(m int, w, qp, nd, q, c, out *float32, nv, next int, bits uint32)

// amaxF32 returns the largest |x[i]| for i < n, a multiple of eight, from
// +0 and skipping NaN.
//
//go:noescape
func amaxF32(n int, x *float32) float32

// scaleF32 sets y[i] = x[i]·alpha for i < n.
//
//go:noescape
func scaleF32(n int, x *float32, alpha float32, y *float32)

// transposeF32x8 copies columns src, src+lds, …, src+7·lds, rows a multiple
// of eight, into lanes 0..7 of the row-major rows dst + 32·i.
//
//go:noescape
func transposeF32x8(rows int, src *float32, lds int, dst *float32)

// gemmNN8F32 computes C[0:m, 0:8] ← β·C + A·T eight rows at a time, T the
// k×8 coefficients in t (l-major, none zero), and returns the rows stored:
// it stops before the first eight whose result holds a NaN. mode 0 is β = 0,
// 1 is β = 1, 2 any other β.
//
//go:noescape
func gemmNN8F32(m, k int, a *float32, lda int, t *float32, c *float32, ldc int, beta float32, mode int) (done int)

// gemmNN16F32 is gemmNN8F32 sixteen rows at a time, on ZMM.
//
//go:noescape
func gemmNN16F32(m, k int, a *float32, lda int, t *float32, c *float32, ldc int, beta float32, mode int) (done int)
