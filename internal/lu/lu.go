// Package lu implements blocked LU factorization with partial pivoting,
// its trailing-matrix update (where the flops are) run through a
// tcsim.Engine, and the elimination growth factor. It exists for the
// `growth` experiment (internal/experiments), which makes the §3.5 footnote
// executable: QR's column scaling bounds every intermediate quantity
// (orthogonal transformations preserve column norms), whereas "LU
// factorization does not guarantee this" — Gaussian elimination has a
// growth factor up to 2^(n-1), so an LU run on a half-precision engine can
// overflow mid-factorization even when every input element is ±1.
package lu

import (
	"errors"
	"fmt"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/tcsim"
)

// DefaultBlockSize is the panel width of the blocked factorization.
const DefaultBlockSize = 32

// ErrSingular is returned when a pivot column is exactly zero (or has been
// poisoned into NaN by engine overflow).
var ErrSingular = errors.New("lu: matrix is singular to working precision")

// Factorization holds P·A = L·U in LAPACK layout: L (unit lower) and U
// share the factored matrix; Pivots[k] is the row swapped with row k at
// step k.
type Factorization struct {
	LU     *dense.M32
	Pivots []int
}

// Options configures the factorization.
type Options struct {
	// Engine runs the trailing-matrix GEMM updates; nil selects plain FP32
	// (set a *tcsim.TensorCore for the related-work configuration).
	Engine tcsim.Engine
	// BlockSize is the panel width; <= 0 selects DefaultBlockSize.
	BlockSize int
}

func (o *Options) engine() tcsim.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return defaultFP32
}

var defaultFP32 = &tcsim.FP32{}

func (o *Options) nb() int {
	if o.BlockSize > 0 {
		return o.BlockSize
	}
	return DefaultBlockSize
}

// Factor computes P·A = L·U with partial pivoting on a copy of the square
// matrix a.
func Factor(a *dense.M32, opts Options) (*Factorization, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("lu: matrix is %dx%d; need square", a.Rows, a.Cols)
	}
	w := a.Clone()
	piv := make([]int, n)
	nb := opts.nb()
	eng := opts.engine()

	for j := 0; j < n; j += nb {
		jb := min(nb, n-j)
		// Panel factorization (unblocked, with pivot search over the whole
		// remaining column height).
		if err := getf2(w, j, jb, piv); err != nil {
			return nil, err
		}
		if j+jb >= n {
			break
		}
		// Apply the panel's row interchanges to the left and right of it.
		laswpRange(w, j, j+jb, piv, 0, j)
		laswpRange(w, j, j+jb, piv, j+jb, n)
		// U12 = L11⁻¹·A12 (unit lower triangular solve).
		l11 := w.View(j, j, jb, jb)
		a12 := w.View(j, j+jb, jb, n-j-jb)
		blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, l11, a12)
		// Trailing update A22 ← A22 − L21·U12 — the engine GEMM.
		l21 := w.View(j+jb, j, n-j-jb, jb)
		a22 := w.View(j+jb, j+jb, n-j-jb, n-j-jb)
		eng.Gemm(blas.NoTrans, blas.NoTrans, -1, l21, a12, 1, a22)
	}
	return &Factorization{LU: w, Pivots: piv}, nil
}

// getf2 factors the panel w[j:n, j:j+jb] in place, recording pivots.
func getf2(w *dense.M32, j, jb int, piv []int) error {
	n := w.Rows
	for k := j; k < j+jb; k++ {
		// Pivot search in column k below the diagonal.
		col := w.Col(k)
		p, best := k, abs32(col[k])
		for i := k + 1; i < n; i++ {
			if a := abs32(col[i]); a > best {
				p, best = i, a
			}
		}
		piv[k] = p
		if best == 0 || best != best { // zero or NaN
			return fmt.Errorf("%w (column %d)", ErrSingular, k)
		}
		if p != k {
			swapRows(w, k, p, j, j+jb)
		}
		pivVal := col[k]
		// Scale the multipliers and update the rest of the panel.
		blas.Scal(1/pivVal, col[k+1:n])
		for c := k + 1; c < j+jb; c++ {
			blas.Axpy(-w.At(k, c), col[k+1:n], w.Col(c)[k+1:n])
		}
	}
	return nil
}

// laswpRange applies the interchanges recorded for rows [k0, k1) to the
// column range [c0, c1).
func laswpRange(w *dense.M32, k0, k1 int, piv []int, c0, c1 int) {
	for k := k0; k < k1; k++ {
		if piv[k] != k {
			swapRows(w, k, piv[k], c0, c1)
		}
	}
}

func swapRows(w *dense.M32, r1, r2, c0, c1 int) {
	for c := c0; c < c1; c++ {
		col := w.Col(c)
		col[r1], col[r2] = col[r2], col[r1]
	}
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// GrowthFactor returns max|U| / max|A|, the elimination growth that §3.5
// warns makes LU unsafe on limited-range formats: even with every input
// element in [-1, 1], growth can reach 2^(n-1) and overflow binary16.
func (f *Factorization) GrowthFactor(a *dense.M32) float64 {
	maxU := 0.0
	n := f.LU.Rows
	for jc := 0; jc < n; jc++ {
		col := f.LU.Col(jc)
		for i := 0; i <= jc; i++ {
			if v := float64(abs32(col[i])); v > maxU {
				maxU = v
			}
		}
	}
	maxA := dense.NormMax(a)
	if maxA == 0 {
		return 0
	}
	return maxU / maxA
}
