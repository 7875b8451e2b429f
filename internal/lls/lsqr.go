package lls

import (
	"fmt"
	"math"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
)

// LSQR solves min ‖A·R⁻¹·y − b‖, x = R⁻¹·y, with the Paige–Saunders LSQR
// algorithm (Golub-Kahan bidiagonalization). It is mathematically
// equivalent to CGLS but numerically more stable on very ill-conditioned
// systems (Section 2.2 mentions it as the robust alternative); it is
// provided so the two refinement engines can be compared. Pass r == nil for
// the unpreconditioned solver. Stopping mirrors CGLS: the estimate of
// ‖Bᵀr_k‖ must fall to tol times its initial value.
func LSQR(a *dense.M64, b []float64, r *dense.M64, tol float64, maxIter int) *IterResult {
	m, n := a.Rows, a.Cols
	if len(b) != m {
		panic(fmt.Sprintf("lls: rhs length %d, want %d", len(b), m))
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}

	tmpM := make([]float64, m)
	tmpN := make([]float64, n)
	tmpT := make([]float64, n) // R⁻¹·v inside applyB

	applyB := func(v []float64, out []float64) { // out = A·R⁻¹·v
		copy(tmpT, v)
		if r != nil {
			blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, r, tmpT)
		}
		blas.Gemv(blas.NoTrans, 1, a, tmpT, 0, out)
	}
	applyBT := func(u []float64, out []float64) { // out = R⁻ᵀ·Aᵀ·u
		blas.Gemv(blas.Trans, 1, a, u, 0, out)
		if r != nil {
			blas.Trsv(blas.Upper, blas.Trans, blas.NonUnit, r, out)
		}
	}

	u := append([]float64(nil), b...)
	beta := blas.Nrm2(u)
	// GradNorms has room for DefaultMaxIter iterations, so up to there what
	// LSQR allocates does not grow with how many it runs (maxIter comes off
	// the wire, so it does not size an allocation).
	out := &IterResult{X: make([]float64, n), GradNorms: make([]float64, 0, min(maxIter, DefaultMaxIter)+1)}
	if beta == 0 {
		out.Converged = true
		out.GradNorms = append(out.GradNorms, 0)
		return out
	}
	blas.Scal(1/beta, u)
	v := make([]float64, n)
	applyBT(u, v)
	alpha := blas.Nrm2(v)
	if alpha == 0 {
		out.Converged = true
		out.GradNorms = append(out.GradNorms, 0)
		return out
	}
	blas.Scal(1/alpha, v)

	w := append([]float64(nil), v...)
	y := make([]float64, n)
	phiBar, rhoBar := beta, alpha
	grad0 := alpha * beta // ‖Bᵀb‖ estimate
	out.GradNorms = append(out.GradNorms, grad0)

	for k := 0; k < maxIter; k++ {
		// β·u = B·v − α·u
		applyB(v, tmpM)
		for i := range u {
			u[i] = tmpM[i] - alpha*u[i]
		}
		beta = blas.Nrm2(u)
		if beta > 0 {
			blas.Scal(1/beta, u)
		}
		// α·v = Bᵀ·u − β·v
		applyBT(u, tmpN)
		for i := range v {
			v[i] = tmpN[i] - beta*v[i]
		}
		alpha = blas.Nrm2(v)
		if alpha > 0 {
			blas.Scal(1/alpha, v)
		}
		// Givens rotation eliminating β from the bidiagonal factor.
		rho := math.Hypot(rhoBar, beta)
		c, s := rhoBar/rho, beta/rho
		theta := s * alpha
		rhoBar = -c * alpha
		phi := c * phiBar
		phiBar = s * phiBar

		blas.Axpy(phi/rho, w, y)
		for i := range w {
			w[i] = v[i] - (theta/rho)*w[i]
		}

		grad := phiBar * alpha * math.Abs(c) // ‖Bᵀ·r_k‖ estimate
		out.GradNorms = append(out.GradNorms, grad)
		out.Iterations = k + 1
		if grad <= tol*grad0 || alpha == 0 || beta == 0 {
			out.Converged = grad <= tol*grad0
			break
		}
	}
	copy(out.X, y)
	if r != nil {
		blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, r, out.X)
	}
	return out
}
