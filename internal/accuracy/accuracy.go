// Package accuracy computes the error metrics the paper reports, always
// accumulating in float64 so the metric itself does not pollute the
// measurement of the (lower precision) algorithm under test:
//
//   - backward error ‖A − Q̂R̂‖/‖A‖ (Figure 3),
//   - orthogonality ‖I − Q̂ᵀQ̂‖ (Figure 4),
//   - least squares optimality ‖Aᵀ(Ax̂ − b)‖ (Figure 9),
//
// and the bounds those metrics are read against (LLSAttainable).
package accuracy

import (
	"tcqr/internal/blas"
	"tcqr/internal/dense"
)

// BackwardError returns ‖A − QR‖_F / ‖A‖_F, evaluated in float64.
func BackwardError(a, q, r *dense.M32) float64 {
	a64 := dense.ToF64(a)
	qr := dense.New[float64](a.Rows, a.Cols)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, dense.ToF64(q), dense.ToF64(r), 0, qr)
	for i := range qr.Data {
		qr.Data[i] -= a64.Data[i]
	}
	return dense.NormFro(qr) / dense.NormFro(a64)
}

// OrthoError returns ‖I − QᵀQ‖_F, evaluated in float64.
func OrthoError(q *dense.M32) float64 { return OrthoError64(dense.ToF64(q)) }

// OrthoError64 is the float64-input variant.
func OrthoError64(q *dense.M64) float64 {
	g := dense.New[float64](q.Cols, q.Cols)
	blas.Gemm(blas.Trans, blas.NoTrans, 1, q, q, 0, g)
	for i := 0; i < q.Cols; i++ {
		g.Set(i, i, g.At(i, i)-1)
	}
	return dense.NormFro(g)
}

// LLSOptimality returns ‖Aᵀ(Ax − b)‖₂ — the paper's accuracy metric for
// least squares solutions (Section 3.2.2) — evaluated in float64.
// Its two working vectors come from one pooled slab, each written before it
// is read, so it allocates nothing.
func LLSOptimality(a *dense.M64, x, b []float64) float64 {
	slab := blas.GetScratch(len(b) + a.Cols)
	defer blas.PutScratch(slab)
	r, g := (*slab)[:len(b)], (*slab)[len(b):]
	copy(r, b)
	blas.Gemv(blas.NoTrans, 1, a, x, -1, r) // r = A·x − b
	blas.Gemv(blas.Trans, 1, a, r, 0, g)
	return blas.Nrm2(g)
}

// unit64 is the unit roundoff of float64, u₆₄ = 2⁻⁵³.
const unit64 = 0x1p-53

// LLSAttainable returns the attainable ‖Aᵀr‖₂ of a float64 least squares
// solve, u₆₄·‖A‖₂·(‖A‖₂·‖x‖₂ + ‖r‖₂), given ‖A‖₂ (or an estimate of it),
// the solution's ‖x‖₂ and its residual's ‖r‖₂ = ‖b − A·x‖₂. Source: Higham,
// Accuracy and Stability of Numerical Algorithms (2nd ed.), §20: a backward
// stable solver's x̂ is the exact solution for A + ΔA and b + Δb with
// ‖ΔA‖ ≤ c·u·‖A‖ and ‖Δb‖ ≤ c·u·‖b‖, so ‖Aᵀr̂‖ ≤ c·u·‖A‖·(‖A‖‖x̂‖ + ‖r̂‖)
// to first order (‖b‖ ≤ ‖A‖‖x̂‖ + ‖r̂‖), and forming Aᵀ(b − A·x̂) in float64
// commits an error of the same size. No float64 solve, however it refines,
// can be trusted to do better; the constant c is 1 here. A NaN argument
// gives NaN, which no norm is at or below.
func LLSAttainable(normA, normX, normR float64) float64 {
	return unit64 * normA * (float64(normA*normX) + normR)
}

// ResidualNorm returns ‖Ax − b‖₂ in float64.
func ResidualNorm(a *dense.M64, x, b []float64) float64 {
	r := append([]float64(nil), b...)
	blas.Gemv(blas.NoTrans, 1, a, x, -1, r)
	return blas.Nrm2(r)
}

// UpperTriangular reports whether every element strictly below the main
// diagonal of r is exactly zero.
func UpperTriangular[T dense.Float](r *dense.Matrix[T]) bool {
	for j := 0; j < r.Cols; j++ {
		col := r.Col(j)
		for i := j + 1; i < r.Rows; i++ {
			if col[i] != 0 {
				return false
			}
		}
	}
	return true
}
