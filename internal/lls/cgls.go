package lls

import (
	"fmt"
	"math"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
)

// Stop names why an iterative solve ended. A settled, diverged or stagnated
// CGLS run returns its best iterate; only a diverged or stagnated one is a
// hazard (see SolveWithFactor).
type Stop uint8

const (
	StopExhausted Stop = iota // the iteration cap, or a zero step
	StopConverged             // the gradient norm fell to tol times its first
	StopSettled               // at the float64 floor: see SettleWindow and SettleBand
	StopDiverged              // the gradient norm grew past DivergenceGuard times its best
	StopStagnated             // StagnationWindow iterations without a new best
)

// String names the stop reason in one lower-case word.
func (s Stop) String() string {
	switch s {
	case StopExhausted:
		return "exhausted"
	case StopConverged:
		return "converged"
	case StopSettled:
		return "settled"
	case StopDiverged:
		return "diverged"
	case StopStagnated:
		return "stagnated"
	}
	return fmt.Sprintf("Stop(%d)", int(s))
}

// IterResult reports the outcome of an iterative solve.
type IterResult struct {
	X          []float64
	Iterations int
	Stop       Stop
	// GradNorms[k] is the preconditioned gradient norm ‖s_k‖ after k
	// iterations (GradNorms[0] is the initial norm), for convergence-rate
	// plots.
	GradNorms []float64
}

// Converged reports whether the solve met its tolerance.
func (r *IterResult) Converged() bool { return r.Stop == StopConverged }

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
	op, out, tol, maxIter := prepare(a, b, r, tol, maxIter)
	m, n := a.Rows, a.Cols

	// The working vectors are carved from one pooled slab of undefined
	// contents, so each is written before it is read; only what the result
	// holds is allocated.
	slab := blas.GetScratch(2*m + 4*n)
	defer blas.PutScratch(slab)
	w := *slab
	res, q := take(&w, m), take(&w, m) // residual r_k = b − A·x; q = A·t
	s, p, bestX, t := take(&w, n), take(&w, n), take(&w, n), take(&w, n)

	x := out.X
	copy(res, b)
	op.applyT(res, s) // preconditioned gradient R⁻ᵀ·Aᵀ·r
	copy(p, s)
	gamma := blas.Dot(s, s)
	norms0 := math.Sqrt(gamma)
	out.GradNorms = append(out.GradNorms, norms0)
	if norms0 == 0 {
		out.Stop = StopConverged
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
		op.apply(p, t, q) // t = R⁻¹·p, q = A·t
		delta := blas.Dot(q, q)
		if delta == 0 {
			break
		}
		alpha := gamma / delta
		blas.Axpy(alpha, t, x)
		blas.Axpy(-alpha, q, res)
		op.applyT(res, s)
		gamma1 := gamma
		gamma = blas.Dot(s, s)
		norms := math.Sqrt(gamma)
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
			out.Stop = StopConverged
			break
		}
		if norms > DivergenceGuard*bestNorm {
			out.Stop = StopDiverged // numerical floor reached
			break
		}
		if sinceImproved >= SettleWindow && bestNorm < norms0 && bestNorm <= settleBand {
			out.Stop = StopSettled // the answer has settled at the float64 floor
			break
		}
		if sinceImproved >= StagnationWindow {
			out.Stop = StopStagnated // a full window without progress
			break
		}
		beta := gamma / gamma1
		for i := range p {
			p[i] = s[i] + float64(beta*p[i])
		}
	}
	// A guard keeps the best iterate; so does a cap or a zero step past it.
	switch out.Stop {
	case StopDiverged, StopSettled, StopStagnated:
		copy(x, bestX)
	case StopExhausted:
		if bestNorm < out.GradNorms[len(out.GradNorms)-1] {
			copy(x, bestX)
		}
	}
	return out
}

// operator is B = A·R⁻¹, the preconditioned matrix CGLS and LSQR iterate
// on; a nil r is no preconditioner.
type operator struct {
	a *dense.M64
	r *dense.M32
}

// prepare checks CGLS's and LSQR's arguments, resolves tol and maxIter, and
// allocates X and GradNorms with room for DefaultMaxIter iterations: sized
// once, not grown by append, and never by maxIter, which comes off the wire.
func prepare(a *dense.M64, b []float64, r *dense.M32, tol float64, maxIter int) (operator, *IterResult, float64, int) {
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
	out := &IterResult{X: make([]float64, n), GradNorms: make([]float64, 0, min(maxIter, DefaultMaxIter)+1)}
	return operator{a, r}, out, tol, maxIter
}

// solve overwrites v with R⁻¹·v.
func (op operator) solve(v []float64) {
	if op.r != nil {
		blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, op.r, v)
	}
}

// apply sets t = R⁻¹·v and out = B·v = A·t.
func (op operator) apply(v, t, out []float64) {
	copy(t, v)
	op.solve(t)
	blas.Gemv(blas.NoTrans, 1, op.a, t, 0, out)
}

// applyT sets out = Bᵀ·u = R⁻ᵀ·Aᵀ·u.
func (op operator) applyT(u, out []float64) {
	blas.Gemv(blas.Trans, 1, op.a, u, 0, out)
	if op.r != nil {
		blas.Trsv(blas.Upper, blas.Trans, blas.NonUnit, op.r, out)
	}
}

// take cuts the first k elements off *w as a vector of capacity k, so no
// append can reach the vector cut after it.
func take(w *[]float64, k int) []float64 {
	v := (*w)[:k:k]
	*w = (*w)[k:]
	return v
}
