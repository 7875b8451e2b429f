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
	// Settled reports that the iteration stopped because its best gradient
	// norm, reached by a later iterate than x₀, was already within the settle
	// band (see SettleBand) and SettleWindow iterations in a row found no
	// better one: the answer had settled at the float64 floor. X holds the
	// best iterate. Unlike Stagnated and Diverged it is no hazard; Converged
	// stays false because tol was not reached.
	Settled bool
}

// StagnationWindow is the number of consecutive iterations without any
// improvement of the best gradient norm after which CGLS declares
// stagnation and stops.
const StagnationWindow = 30

// DivergenceGuard is the growth factor over the best gradient norm at which
// CGLS declares divergence and restores the best iterate.
const DivergenceGuard = 100.0

// SettleWindow is the number of consecutive iterations without a new best
// gradient norm after which CGLS stops as settled, once the best is within
// the settle band. It was chosen on a battery of 1152 solves
// (the workloads' four shapes; the tc, tc-ec, bf16 and fp32 engines; κ 1e1,
// 1e3, 1e5 and 1e6; geometric, arithmetic and Cluster2 spectra; two seeds;
// two normal b and one consistent b). There a window of 2 made 2 of the 288
// κ 1e3 answers worse, by up to 1.9× in ‖Aᵀr‖, and windows of 3 to 6 made
// none worse. 4 keeps one iteration of margin over 3 and still cuts the κ
// 1e3 iterations by 30 % (3: 35 %, 6: 23 %).
const SettleWindow = 4

// SettleBand sets the settle band: SettleWindow stops a run only once its
// best gradient norm is at most SettleBand·min(tol, DefaultTol)·‖s_0‖ and
// below ‖s_0‖. DefaultTol stands for the float64 floor, so a looser tol
// never widens the band past 1e-12·‖s_0‖: from tol 1e-12 up a run that
// reaches the band has converged first, and the rule never fires. On the
// battery (run at DefaultTol), the window without the band also stopped
// slow-progress runs (κ ≥ 1e5, best still 7e-7 to 4e-2 of ‖s_0‖ at a
// four-iteration plateau) and made 110 of the 576 κ 1e5 and 1e6 answers
// more than 2× worse, up to 3e8×. With the band at 100 it changed 14 of
// those answers, and each got better.
const SettleBand = 100.0

// DefaultTol is the relative convergence tolerance on the preconditioned
// gradient used when a caller passes tol <= 0.
const DefaultTol = 1e-14

// DefaultMaxIter caps refinement iterations when maxIter <= 0. The paper
// tolerates at most 200 iterations in its stress case (Section 4.2.2).
const DefaultMaxIter = 200

// CGLS solves min ‖A·R⁻¹·y − b‖, x = R⁻¹·y, by conjugate gradients on the
// preconditioned normal equations — Algorithm 3 of the paper. A, b and the
// iteration are in float64; r is the upper-triangular preconditioner, the
// factorization's float32 R as it stands (pass nil for plain,
// unpreconditioned CGLS). The triangular solves widen each element of r as
// they load it, which is exact, so no float64 copy of R is made and the
// iteration is the one a float64 copy would run, bit for bit. With R from an
// RGSQRF factorization, A·R⁻¹ is within O(κ(A)·ε_half) of orthogonal, so
// convergence takes a handful of iterations and the final accuracy is that
// of the float64 iteration — this is how the half-precision factorization
// reaches double-precision results.
//
// Iteration stops when ‖s_k‖ <= tol·‖s_0‖ (s is the preconditioned
// gradient) or after maxIter iterations, and early, returning the best
// iterate, on one of three guards checked in this order: divergence (‖s_k‖
// past DivergenceGuard times the best), settling (SettleWindow iterations
// without a new best once the best is within the settle band) and
// stagnation (StagnationWindow iterations without a new best).
func CGLS(a *dense.M64, b []float64, r *dense.M32, tol float64, maxIter int) *IterResult {
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

	// The working vectors are carved from one pooled slab of undefined
	// contents, so each is written before it is read; only what the result
	// holds is allocated.
	slab := blas.GetScratch(2*m + 4*n)
	defer blas.PutScratch(slab)
	w := *slab
	res, q := take(&w, m), take(&w, m) // residual r_k = b − A·x; q = A·t
	s, p, bestX, t := take(&w, n), take(&w, n), take(&w, n), take(&w, n)

	x := make([]float64, n)
	copy(res, b)
	blas.Gemv(blas.Trans, 1, a, res, 0, s) // preconditioned gradient R⁻ᵀ·Aᵀ·r
	if r != nil {
		blas.Trsv(blas.Upper, blas.Trans, blas.NonUnit, r, s)
	}
	copy(p, s)
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
	// (divergence), has stopped improving near the tolerance (settled) or
	// has stopped improving for a full window (stagnation).
	copy(bestX, x)
	bestNorm := norms0
	sinceImproved := 0
	// SettleBand above the float64 floor, or above tol when a caller asks
	// for less; SettleBand*DefaultTol folds to exactly 1e-12, so at tol
	// 1e-12 the band is tol·‖s_0‖ itself.
	settleBand := min(SettleBand*tol, SettleBand*DefaultTol) * norms0

	for k := 0; k < maxIter; k++ {
		copy(t, p) // t = R⁻¹·p
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
		if sinceImproved >= SettleWindow && bestNorm < norms0 && bestNorm <= settleBand {
			// The answer has settled at the float64 floor: keep the best.
			out.Settled = true
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

// take cuts the first k elements off *w as a vector of capacity k, so no
// append can reach the vector cut after it.
func take(w *[]float64, k int) []float64 {
	v := (*w)[:k:k]
	*w = (*w)[k:]
	return v
}

func dot64(x, y []float64) float64 { return blas.Dot(x, y) }

func sqrt(x float64) float64 { return math.Sqrt(x) }
