package tcsim

import (
	"fmt"

	"tcqr/internal/dense"
	"tcqr/internal/f16"
)

// FragmentDim is the WMMA fragment size exposed by the CUDA programming
// model on Volta (m16n16k16).
const FragmentDim = 16

// MmaFragment performs one WMMA-style fragment operation,
// D = A·B + C, where A, B are 16×16 binary16 fragments and C, D are 16×16
// float32 accumulators. It documents the exact per-fragment numerics the
// fast path in TensorCore.Gemm reproduces: products of binary16 values are
// exact in binary32; each accumulation rounds in binary32.
func MmaFragment(d, c *[FragmentDim][FragmentDim]float32, a, b *[FragmentDim][FragmentDim]f16.Float16) {
	for i := 0; i < FragmentDim; i++ {
		for j := 0; j < FragmentDim; j++ {
			acc := c[i][j]
			for k := 0; k < FragmentDim; k++ {
				acc += float32(f16.ToFloat32Fast(a[i][k]) * f16.ToFloat32Fast(b[k][j]))
			}
			d[i][j] = acc
		}
	}
}

// GemmWMMA multiplies C ← A·B + C (no transposes, α=β=1) by explicit
// 16×16×16 fragment tiling, padding edges with zeros, exactly as a WMMA
// kernel would. It exists to validate TensorCore.Gemm: both paths round
// operands through binary16 and accumulate in float32, and must agree to
// within float32 summation-reordering effects. It is not used on the hot
// path.
func GemmWMMA(a, b, c *dense.M32) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tcsim: GemmWMMA shapes %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	m, n, k := a.Rows, b.Cols, a.Cols
	var fa, fb [FragmentDim][FragmentDim]f16.Float16
	var fc [FragmentDim][FragmentDim]float32
	for i0 := 0; i0 < m; i0 += FragmentDim {
		for j0 := 0; j0 < n; j0 += FragmentDim {
			// Load the C fragment (zero padded).
			for i := range fc {
				for j := range fc[i] {
					if i0+i < m && j0+j < n {
						fc[i][j] = c.At(i0+i, j0+j)
					} else {
						fc[i][j] = 0
					}
				}
			}
			for k0 := 0; k0 < k; k0 += FragmentDim {
				loadFragment(&fa, a, i0, k0)
				loadFragment(&fb, b, k0, j0)
				MmaFragment(&fc, &fc, &fa, &fb)
			}
			for i := 0; i < FragmentDim && i0+i < m; i++ {
				for j := 0; j < FragmentDim && j0+j < n; j++ {
					c.Set(i0+i, j0+j, fc[i][j])
				}
			}
		}
	}
}

func loadFragment(dst *[FragmentDim][FragmentDim]f16.Float16, m *dense.M32, i0, j0 int) {
	for i := range dst {
		for j := range dst[i] {
			if i0+i < m.Rows && j0+j < m.Cols {
				dst[i][j] = f16.FromFloat32(m.At(i0+i, j0+j))
			} else {
				dst[i][j] = 0
			}
		}
	}
}
