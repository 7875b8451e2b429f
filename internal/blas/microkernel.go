package blas

import "tcqr/internal/dense"

// microKernel4x4 computes one 4×4 tile of C from packed operand panels:
//
//	C[0:rows, 0:cols] ← β'·C + α·Σ_l ap[l]·bp[l]ᵀ
//
// where ap/bp hold kb quads in the layout produced by packAPanel/packBPanel,
// c points at the tile's top-left element with leading dimension ldc, and
// β' is beta on the first k-slab (first == true) and 1 afterwards. k is
// traversed in ascending order, each product rounded before it is added
// (T(a·b): no compiler may fuse the two), which fixes the accumulation order
// independently of blocking and parallelism. The sixteen accumulators are
// locals rather than an array, so the compiler may keep them in registers;
// writeTile folds them into C, masking rows/cols on edge tiles (the padded
// lanes are computed and discarded).
func microKernel4x4[T dense.Float](kb int, ap, bp []T, alpha, beta T, c []T, ldc, rows, cols int, first bool) {
	var c00, c10, c20, c30 T
	var c01, c11, c21, c31 T
	var c02, c12, c22, c32 T
	var c03, c13, c23, c33 T
	for l := 0; l < kb; l++ {
		a := ap[l*scalarMR : (l+1)*scalarMR]
		b := bp[l*kernelNR : (l+1)*kernelNR]
		c00 += T(a[0] * b[0])
		c10 += T(a[1] * b[0])
		c20 += T(a[2] * b[0])
		c30 += T(a[3] * b[0])
		c01 += T(a[0] * b[1])
		c11 += T(a[1] * b[1])
		c21 += T(a[2] * b[1])
		c31 += T(a[3] * b[1])
		c02 += T(a[0] * b[2])
		c12 += T(a[1] * b[2])
		c22 += T(a[2] * b[2])
		c32 += T(a[3] * b[2])
		c03 += T(a[0] * b[3])
		c13 += T(a[1] * b[3])
		c23 += T(a[2] * b[3])
		c33 += T(a[3] * b[3])
	}
	acc := [scalarMR * kernelNR]T{
		c00, c10, c20, c30,
		c01, c11, c21, c31,
		c02, c12, c22, c32,
		c03, c13, c23, c33,
	}
	writeTile(acc[:], scalarMR, alpha, beta, c, ldc, rows, cols, first)
}

// kernel names one micro-kernel family of the packed GEMM, chosen per call
// (gemmKernel) from the element type and the CPU (internal/cpufeat, once at
// init). Every family gives each C element the same bits: its k terms
// accumulate from +0 in ascending order, each product rounded and then each
// sum. Only the tile height and the speed differ.
type kernel uint8

const (
	kernelGo  kernel = iota // microKernel4x4: portable, the fallback and the oracle
	kernelF64               // gemmKernel8x4F64: 8×4 float64, VMULPD+VADDPD
	kernelYMM               // tile16x4F32: 16×4 float32, VMULPS+VADDPS
	kernelZMM               // tile32x4F32: 32×4 float32, VMULPS+VADDPS
)

// mr is the number of rows of C in one of the family's tiles; packAPanel cuts
// op(A) into micro-panels of this height.
func (k kernel) mr() int {
	switch k {
	case kernelF64:
		return 8
	case kernelYMM:
		return 16
	case kernelZMM:
		return 32
	}
	return scalarMR
}

// gemmKernel picks the family for a GEMM in T: the assembly families only
// for exactly float32 and float64, the Go kernel for everything else.
func gemmKernel[T dense.Float]() kernel {
	var z T
	switch any(z).(type) {
	case float32:
		return f32Kernel
	case float64:
		if useAVXKernels {
			return kernelF64
		}
	}
	return kernelGo
}

// Write-back modes of the float32 tile kernels. tileAdd, tileScale and
// tileAxpby are writeTile's cases with the α = 1 and β = 1 shortcuts folded
// in, which changes no bit of a result that is not NaN (1·v = v), and a
// kernel stores no NaN.
const (
	tileAcc   = 0 // store the raw accumulators, column-major with leading dimension mr
	tileAdd   = 1 // C + α·acc: a later k-slab
	tileScale = 2 // α·acc: the first k-slab, β = 0 (C is not read)
	tileAxpby = 3 // β·C + α·acc: the first k-slab
)

// microTile computes one mr×kernelNR tile of C from packed panels with the
// family kern.
func microTile[T dense.Float](kern kernel, kb int, ap, bp []T, alpha, beta T, c []T, ldc, rows, cols int, first bool) {
	switch kern {
	case kernelGo:
		microKernel4x4(kb, ap, bp, alpha, beta, c, ldc, rows, cols, first)
	case kernelF64:
		microTile8x4F64(kb, any(ap).([]float64), any(bp).([]float64), float64(alpha), float64(beta), any(c).([]float64), ldc, rows, cols, first)
	default:
		microTileF32(kern, kb, any(ap).([]float32), any(bp).([]float32), float32(alpha), float32(beta), any(c).([]float32), ldc, rows, cols, first)
	}
}

// microTileF32 runs a float32 assembly family. A full tile is stored by the
// kernel itself, α and β applied in registers. If any of its results is NaN
// the kernel stores nothing, and the tile is recomputed into an accumulator
// block that writeTile folds into C, as for an edge tile. Where two NaNs
// meet, which one survives depends on operand order (level2_amd64.go); this
// way a NaN tile is the accumulator folded by writeTile, as it was before the
// kernels stored tiles, and never the in-register write-back's.
func microTileF32(kern kernel, kb int, ap, bp []float32, alpha, beta float32, c []float32, ldc, rows, cols int, first bool) {
	mr := kern.mr()
	if rows == mr && cols == kernelNR {
		mode := tileAxpby
		switch {
		case !first:
			mode = tileAdd
		case beta == 0:
			mode = tileScale
		}
		if tileF32(mr, kb, &ap[0], &bp[0], &c[0], ldc, alpha, beta, mode) {
			return
		}
	}
	var acc [maxMR * kernelNR]float32
	tileF32(mr, kb, &ap[0], &bp[0], &acc[0], mr, 0, 0, tileAcc)
	writeTile(acc[:], mr, alpha, beta, c, ldc, rows, cols, first)
}

// tileF32 calls the float32 tile kernel of height mr.
func tileF32(mr, kb int, ap, bp, c *float32, ldc int, alpha, beta float32, mode int) bool {
	if mr == 32 {
		return tile32x4F32(kb, ap, bp, c, ldc, alpha, beta, mode)
	}
	return tile16x4F32(kb, ap, bp, c, ldc, alpha, beta, mode)
}

func microTile8x4F64(kb int, ap, bp []float64, alpha, beta float64, c []float64, ldc, rows, cols int, first bool) {
	var acc [8 * kernelNR]float64
	gemmKernel8x4F64(kb, &ap[0], &bp[0], &acc[0])
	writeTile(acc[:], 8, alpha, beta, c, ldc, rows, cols, first)
}

// writeTile folds a column-major mr×nr accumulator block into C, masking
// rows/cols on edge tiles: C + α·acc on a later k-slab, α·acc or β·C + α·acc
// on the first. Every product is rounded before it is added, and α = 1 and
// β = 1 skip their multiplication, which changes no bit of a result that is
// not NaN (1·v = v).
func writeTile[T dense.Float](acc []T, mr int, alpha, beta T, c []T, ldc, rows, cols int, first bool) {
	for s := 0; s < cols; s++ {
		d := c[s*ldc : s*ldc+rows]
		as := acc[s*mr : s*mr+rows]
		switch {
		case !first && alpha == 1:
			for r, v := range as {
				d[r] += v
			}
		case !first:
			for r, v := range as {
				d[r] += T(alpha * v)
			}
		case beta == 0 && alpha == 1:
			copy(d, as)
		case beta == 0:
			for r, v := range as {
				d[r] = alpha * v
			}
		case beta == 1 && alpha == 1:
			for r, v := range as {
				d[r] += v
			}
		default:
			for r, v := range as {
				d[r] = T(beta*d[r]) + T(alpha*v)
			}
		}
	}
}

// gemmMacro runs the micro-kernel over one packed (ib×kb)·(kb×jb) slab pair,
// updating the C tile anchored at (i0, j0). The loop order keeps each packed
// B micro-panel hot in L1 while streaming A micro-panels from L2.
func gemmMacro[T dense.Float](kern kernel, ap, bp []T, alpha, beta T, c *dense.Matrix[T], i0, ib, j0, jb, kb int, first bool) {
	const nr = kernelNR
	mr := kern.mr()
	aPanels := (ib + mr - 1) / mr
	bPanels := (jb + nr - 1) / nr
	for q := 0; q < bPanels; q++ {
		bpq := bp[q*nr*kb : (q+1)*nr*kb]
		jj := j0 + q*nr
		cols := min(nr, j0+jb-jj)
		for p := 0; p < aPanels; p++ {
			app := ap[p*mr*kb : (p+1)*mr*kb]
			ii := i0 + p*mr
			rows := min(mr, i0+ib-ii)
			microTile(kern, kb, app, bpq, alpha, beta, c.Data[ii+jj*c.Stride:], c.Stride, rows, cols, first)
		}
	}
}
