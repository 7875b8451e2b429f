package gram

import (
	"fmt"

	"tcqr/internal/blas"
	"tcqr/internal/chol"
	"tcqr/internal/dense"
	"tcqr/internal/hazard"
)

// CholQR computes a QR factorization via the Gram matrix: G = AᵀA,
// G = RᵀR (Cholesky), Q = A·R⁻¹. This is the mixed-precision CholeskyQR
// family the paper discusses as related work (Yamazaki, Tomov & Dongarra
// [28]): it runs almost entirely in BLAS-3 — even more GEMM-friendly than
// RGSQRF — but forming AᵀA squares the condition number, so its
// orthogonality error grows as κ(A)² and the Cholesky itself breaks down
// once κ(A)² overwhelms the working precision. The paper's contrast: "our
// method doesn't seem to double the condition number of the input matrix."
//
// The input is not modified. Returns an error when the Gram matrix is not
// numerically positive definite.
func CholQR(a *dense.M32) (q, r *dense.M32, err error) {
	return factorCopy(a, cholQRInto)
}

// cholQRInto is CholQR in place: Q over w, R into the n×n r.
func cholQRInto(w, r *dense.M32) error {
	m, n := w.Rows, w.Cols
	if m < n {
		return fmt.Errorf("gram: CholQR requires m >= n, got %dx%d", m, n)
	}
	g := dense.New[float32](n, n)
	blas.Syrk(blas.Lower, blas.Trans, 1, w, 0, g)
	// Cholesky gives G = L·Lᵀ; R = Lᵀ. A non-SPD Gram matrix is the CholQR
	// breakdown mode (κ² overwhelmed float32, or the panel is rank
	// deficient); report it as a typed breakdown, which the Factorize ladder
	// answers with a more robust panel.
	if err := chol.Potrf(g); err != nil {
		return fmt.Errorf("gram: CholQR: Gram matrix not SPD (κ² too large for float32, or rank deficient): %v: %w", err, hazard.ErrBreakdown)
	}
	r.Zero()
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			r.Set(i, j, g.At(j, i)) // transpose the lower factor
		}
	}
	// Q = A·R⁻¹ (right triangular solve).
	blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, r, w)
	return nil
}

// CholQR2 is CholQR followed by a second pass on Q (the standard fix that
// restores orthogonality when the first pass survives): A = Q₁R₁,
// Q₁ = Q₂R₂ ⇒ A = Q₂(R₂R₁). It cannot rescue a first pass that broke down,
// so it is no recovery rung; the orthomethods experiment measures it.
func CholQR2(a *dense.M32) (q, r *dense.M32, err error) {
	q1, r1, err := CholQR(a)
	if err != nil {
		return nil, nil, err
	}
	q, r2, err := CholQR(q1)
	if err != nil {
		return nil, nil, err
	}
	r = dense.New[float32](r1.Rows, r1.Cols)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, r2, r1, 0, r)
	return q, r, nil
}

// CholQRPanel adapts CholQR to the Panel interface for ablations. Cholesky
// breakdown surfaces as an error wrapping hazard.ErrBreakdown.
type CholQRPanel struct{}

// Name implements Panel.
func (CholQRPanel) Name() string { return "CholQR" }

// Factor implements Panel.
func (p CholQRPanel) Factor(a *dense.M32) (q, r *dense.M32, err error) {
	return factorCopy(a, p.factorInto)
}

// factorInto is the CholQR panel in place.
func (CholQRPanel) factorInto(w, r *dense.M32) error {
	if err := cholQRInto(w, r); err != nil {
		return err
	}
	return checkFullRank("CholQR", r)
}
