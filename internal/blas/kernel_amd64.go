//go:build amd64

package blas

import "tcqr/internal/cpufeat"

// AVX micro-kernels for the packed GEMM. They compute a full micro-tile
// accumulator block from packed panels:
//
//	out[r + s·MR] = Σ_l ap[l·MR+r] · bp[l·NR+s]
//
// vectorizing over r (rows of C), so each C element still accumulates its k
// terms sequentially in ascending order with one rounding per multiply and
// one per add — exactly the arithmetic of the scalar kernel and of the
// original column-sweep code. FMA is deliberately not used: a fused
// multiply-add would skip the intermediate rounding and make results differ
// between the assembly and pure-Go paths (and change the simulated engines'
// float32 accumulation semantics). α/β application and edge masking happen
// in Go during write-back.

// gemmKernel16x4F32 accumulates a 16×4 float32 tile over kb packed quads.
//
//go:noescape
func gemmKernel16x4F32(kb int, ap, bp, out *float32)

// gemmKernel8x4F64 accumulates an 8×4 float64 tile over kb packed quads.
//
//go:noescape
func gemmKernel8x4F64(kb int, ap, bp, out *float64)

// useAVXKernels gates the assembly micro-kernels; when false the generic
// scalar 4×4 kernel runs everywhere.
var useAVXKernels = cpufeat.AVX
