package blas

import "tcqr/internal/dense"

// This file holds the straightforward column-sweep GEMM that predates the
// packed kernel. It is kept for three jobs: small problems where packing
// costs more than it saves, the per-problem bodies of GemmBatch (and the
// fallback and oracle of their register-blocked kernel, tile.go), and as the
// golden reference the property tests cross-check the packed kernel against.

// scaleCols scales columns [j0, j1) of c by beta, with the BLAS convention
// that beta == 0 overwrites (clearing NaN/Inf) rather than multiplies.
func scaleCols[T dense.Float](c *dense.Matrix[T], beta T, j0, j1 int) {
	if beta == 1 {
		return
	}
	for j := j0; j < j1; j++ {
		col := c.Col(j)
		if beta == 0 {
			for i := range col {
				col[i] = 0
			}
		} else {
			for i := range col {
				col[i] *= beta
			}
		}
	}
}

// gemmCols computes columns [j0, j1) of the GEMM output with simple column
// sweeps, accumulating over k in ascending order.
func gemmCols[T dense.Float](tA, tB Transpose, alpha T, a, b *dense.Matrix[T], beta T, c *dense.Matrix[T], j0, j1, k, m int) {
	switch {
	case tA == NoTrans && tB == NoTrans:
		scaleCols(c, beta, j0, j1)
		for l := 0; l < k; l++ {
			al := a.Col(l)
			for j := j0; j < j1; j++ {
				t := alpha * b.At(l, j)
				if t == 0 {
					continue
				}
				colUpdate(c.Col(j), al, t)
			}
		}
	case tA == Trans && tB == NoTrans:
		for j := j0; j < j1; j++ {
			bj := b.Col(j)
			cj := c.Col(j)
			for i := 0; i < m; i++ {
				s := T(alpha * Dot(a.Col(i), bj))
				if beta == 0 {
					cj[i] = s
				} else {
					cj[i] = T(beta*cj[i]) + s
				}
			}
		}
	case tA == NoTrans && tB == Trans:
		scaleCols(c, beta, j0, j1)
		for l := 0; l < k; l++ {
			al := a.Col(l)
			for j := j0; j < j1; j++ {
				t := alpha * b.At(j, l)
				if t == 0 {
					continue
				}
				colUpdate(c.Col(j), al, t)
			}
		}
	default: // Trans, Trans
		for j := j0; j < j1; j++ {
			cj := c.Col(j)
			for i := 0; i < m; i++ {
				col := a.Col(i)
				var s T
				for l, v := range col {
					s += T(v * b.At(j, l))
				}
				if beta == 0 {
					cj[i] = alpha * s
				} else {
					cj[i] = T(beta*cj[i]) + T(alpha*s)
				}
			}
		}
	}
}
