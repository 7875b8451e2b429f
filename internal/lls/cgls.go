package lls

import (
	"fmt"
	"math"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
)

// IterResult reports the outcome of an iterative solve.
type IterResult struct {
	X          []float64
	Iterations int
	Converged  bool
	// GradNorms[k] is the preconditioned gradient norm ‖s_k‖ after k
	// iterations (GradNorms[0] is the initial norm), for convergence-rate
	// plots.
	GradNorms []float64
	// Stagnated reports that the iteration stopped because the gradient
	// norm made no progress for StagnationWindow consecutive iterations —
	// the preconditioner is too weak (or the numerical floor was reached)
	// and further Krylov steps are wasted work. X holds the best iterate.
	Stagnated bool
	// Diverged reports that the iteration was cut off because the gradient
	// norm grew past DivergenceGuard times the best seen — the loss of
	// conjugacy past the numerical floor. X holds the best iterate.
	Diverged bool
}

// StagnationWindow is the number of consecutive iterations without any
// improvement of the best gradient norm after which CGLS declares
// stagnation and stops.
const StagnationWindow = 30

// DivergenceGuard is the growth factor over the best gradient norm at which
// CGLS declares divergence and restores the best iterate.
const DivergenceGuard = 100.0

// DefaultTol is the relative convergence tolerance on the preconditioned
// gradient used when a caller passes tol <= 0.
const DefaultTol = 1e-14

// DefaultMaxIter caps refinement iterations when maxIter <= 0. The paper
// tolerates at most 200 iterations in its stress case (Section 4.2.2).
const DefaultMaxIter = 200

// CGLS solves min ‖A·R⁻¹·y − b‖, x = R⁻¹·y, by conjugate gradients on the
// preconditioned normal equations — Algorithm 3 of the paper. A and b are
// in float64; r is the upper-triangular preconditioner (pass nil for plain,
// unpreconditioned CGLS). With R from an RGSQRF factorization, A·R⁻¹ is
// within O(κ(A)·ε_half) of orthogonal, so convergence takes a handful of
// iterations and the final accuracy is that of the float64 iteration — this
// is how the half-precision factorization reaches double-precision results.
//
// Iteration stops when ‖s_k‖ <= tol·‖s_0‖ (s is the preconditioned
// gradient) or after maxIter iterations.
func CGLS(a *dense.M64, b []float64, r *dense.M64, tol float64, maxIter int) *IterResult {
	m, n := a.Rows, a.Cols
	if len(b) != m {
		panic(fmt.Sprintf("lls: rhs length %d, want %d", len(b), m))
	}
	if r != nil && (r.Rows != n || r.Cols != n) {
		panic(fmt.Sprintf("lls: preconditioner is %dx%d, want %dx%d", r.Rows, r.Cols, n, n))
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}

	x := make([]float64, n)
	res := append([]float64(nil), b...) // residual r_k = b − A·x
	s := make([]float64, n)             // preconditioned gradient R⁻ᵀ·Aᵀ·r
	blas.Gemv(blas.Trans, 1, a, res, 0, s)
	if r != nil {
		blas.Trsv(blas.Upper, blas.Trans, blas.NonUnit, r, s)
	}
	p := append([]float64(nil), s...)
	gamma := dot64(s, s)
	norms0 := sqrt(gamma)
	// GradNorms has room for DefaultMaxIter iterations, as LSQR's has: sized
	// once, not grown by append as the iteration runs.
	out := &IterResult{X: x, GradNorms: append(make([]float64, 0, min(maxIter, DefaultMaxIter)+1), norms0)}
	if norms0 == 0 {
		out.Converged = true
		return out
	}

	// Best-iterate tracking: once the preconditioned gradient reaches the
	// numerical floor of the float64 iteration, further CG steps lose
	// conjugacy and can diverge exponentially. We keep the best solution
	// seen and bail out when the gradient norm has grown well past it
	// (divergence) or has stopped improving for a full window (stagnation).
	bestX := append([]float64(nil), x...)
	bestNorm := norms0
	sinceImproved := 0

	t := make([]float64, n) // t = R⁻¹·p
	q := make([]float64, m) // q = A·t
	for k := 0; k < maxIter; k++ {
		copy(t, p)
		if r != nil {
			blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, r, t)
		}
		blas.Gemv(blas.NoTrans, 1, a, t, 0, q)
		delta := dot64(q, q)
		if delta == 0 {
			break
		}
		alpha := gamma / delta
		blas.Axpy(alpha, t, x)
		blas.Axpy(-alpha, q, res)
		blas.Gemv(blas.Trans, 1, a, res, 0, s)
		if r != nil {
			blas.Trsv(blas.Upper, blas.Trans, blas.NonUnit, r, s)
		}
		gamma1 := gamma
		gamma = dot64(s, s)
		norms := sqrt(gamma)
		out.GradNorms = append(out.GradNorms, norms)
		out.Iterations = k + 1
		if norms < bestNorm {
			bestNorm = norms
			copy(bestX, x)
			sinceImproved = 0
		} else {
			sinceImproved++
		}
		if norms <= tol*norms0 {
			out.Converged = true
			break
		}
		if norms > DivergenceGuard*bestNorm {
			// Numerical floor reached; restore the best iterate.
			out.Diverged = true
			copy(x, bestX)
			break
		}
		if sinceImproved >= StagnationWindow {
			// A full window without progress: stop and keep the best.
			out.Stagnated = true
			copy(x, bestX)
			break
		}
		beta := gamma / gamma1
		for i := range p {
			p[i] = s[i] + float64(beta*p[i])
		}
	}
	if !out.Converged && bestNorm < out.GradNorms[len(out.GradNorms)-1] {
		copy(x, bestX)
	}
	return out
}

func dot64(x, y []float64) float64 { return blas.Dot(x, y) }

func sqrt(x float64) float64 { return math.Sqrt(x) }
