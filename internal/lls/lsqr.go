package lls

import (
	"math"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
)

// LSQR solves min ‖A·R⁻¹·y − b‖, x = R⁻¹·y, with the Paige–Saunders LSQR
// algorithm (Golub-Kahan bidiagonalization). It is mathematically
// equivalent to CGLS but numerically more stable on very ill-conditioned
// systems (Section 2.2): it converges where CGLS trips its divergence guard
// on fp16 and bf16 factors of inputs with κ ≥ 1e6 and arithmetic or
// clustered spectra. A, b and the iteration are in float64, and r is the
// factorization's float32 R, applied as CGLS applies it; pass r == nil for
// the unpreconditioned solver. It converges when the estimate of ‖Bᵀr_k‖
// falls to tol times its initial value and is otherwise exhausted by the cap
// or a zero step: it has none of CGLS's guards.
func LSQR(a *dense.M64, b []float64, r *dense.M32, tol float64, maxIter int) *IterResult {
	op, out, tol, maxIter := prepare(a, b, r, tol, maxIter)
	m, n := a.Rows, a.Cols

	// The working vectors are carved from one pooled slab of undefined
	// contents, as CGLS's are: each is written before it is read.
	slab := blas.GetScratch(2*m + 5*n)
	defer blas.PutScratch(slab)
	ws := *slab
	u, tmpM := take(&ws, m), take(&ws, m)
	v, w, y, tmpN := take(&ws, n), take(&ws, n), take(&ws, n), take(&ws, n)
	tmpT := take(&ws, n) // R⁻¹·v inside op.apply

	copy(u, b)
	beta, alpha := blas.Nrm2(u), 0.0
	if beta != 0 {
		blas.Scal(1/beta, u)
		op.applyT(u, v)
		alpha = blas.Nrm2(v)
	}
	if alpha == 0 { // b = 0 or Bᵀb = 0: x = 0 is the answer
		out.Stop = StopConverged
		out.GradNorms = append(out.GradNorms, 0)
		return out
	}
	blas.Scal(1/alpha, v)

	copy(w, v)
	clear(y)
	phiBar, rhoBar := beta, alpha
	grad0 := alpha * beta // ‖Bᵀb‖ estimate
	out.GradNorms = append(out.GradNorms, grad0)

	for k := 0; k < maxIter; k++ {
		// β·u = B·v − α·u
		op.apply(v, tmpT, tmpM)
		for i := range u {
			u[i] = tmpM[i] - float64(alpha*u[i])
		}
		beta = blas.Nrm2(u)
		if beta > 0 {
			blas.Scal(1/beta, u)
		}
		// α·v = Bᵀ·u − β·v
		op.applyT(u, tmpN)
		for i := range v {
			v[i] = tmpN[i] - float64(beta*v[i])
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
			w[i] = v[i] - float64((theta/rho)*w[i])
		}

		grad := phiBar * alpha * math.Abs(c) // ‖Bᵀ·r_k‖ estimate
		out.GradNorms = append(out.GradNorms, grad)
		out.Iterations = k + 1
		if grad <= tol*grad0 {
			out.Stop = StopConverged
			break
		}
		if alpha == 0 || beta == 0 {
			break
		}
	}
	copy(out.X, y)
	op.solve(out.X)
	return out
}
