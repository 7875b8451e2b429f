// Package chol implements the Cholesky factorization G = L·Lᵀ of a Gram
// matrix G = AᵀA, the step of CholeskyQR (internal/gram's CholQR) that
// breaks down once κ(A)² overwhelms the working precision — the
// condition-squaring the paper contrasts RGSQRF with.
package chol

import (
	"errors"
	"fmt"
	"math"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
)

// ErrNotPositiveDefinite is returned when a pivot is not positive, which for
// the normal equations happens exactly when κ(A)² overwhelms the working
// precision — the failure mode QR-based solvers avoid.
var ErrNotPositiveDefinite = errors.New("chol: matrix is not positive definite")

// Potrf overwrites the lower triangle of a with its Cholesky factor L such
// that A = L·Lᵀ. The strict upper triangle is not referenced. It returns
// ErrNotPositiveDefinite (wrapping the failing column index) if a pivot is
// non-positive.
func Potrf[T dense.Float](a *dense.Matrix[T]) error {
	n := a.Rows
	if a.Cols != n {
		panic("chol: Potrf requires a square matrix")
	}
	for j := 0; j < n; j++ {
		colJ := a.Col(j)
		// Diagonal update: a_jj -= Σ_{k<j} L_jk².
		d := float64(colJ[j])
		for k := 0; k < j; k++ {
			v := float64(a.At(j, k))
			d -= float64(v * v)
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (column %d, pivot %g)", ErrNotPositiveDefinite, j, d)
		}
		l := T(math.Sqrt(d))
		colJ[j] = l
		if j == n-1 {
			continue
		}
		// Column update: a[j+1:, j] = (a[j+1:, j] - Σ_{k<j} L[j+1:,k]·L_jk) / l.
		tail := colJ[j+1:]
		for k := 0; k < j; k++ {
			blas.Axpy(-a.At(j, k), a.Col(k)[j+1:], tail)
		}
		blas.Scal(1/l, tail)
	}
	return nil
}
