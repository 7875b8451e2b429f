package lls

import (
	"fmt"
	"math"

	"tcqr/internal/accuracy"
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
	StopSettled               // at the attainable float64 floor, then an iteration without a new best
	StopDiverged              // the gradient norm grew past DivergenceGuard times the best, short of the floor
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
// past DivergenceGuard times the best), settling (see below) and stagnation
// (StagnationWindow iterations without a new best).
//
// A run settles at the float64 floor. Once an iterate's unpreconditioned
// gradient ‖Aᵀ·res_k‖ falls to accuracy.LLSAttainable(ν, ‖x_k‖, ‖res_k‖),
// the attainable ‖Aᵀr‖ of any float64 solve, the first iteration without a
// new best ends the run as StopSettled: past the floor CG loses conjugacy,
// and the best iterate is the answer. Until then the gate costs three norms
// per iteration, ‖Aᵀ·res_k‖ and ‖x_k‖ of length n and ‖res_k‖ of length m.
// ν estimates ‖A‖₂ = ‖R‖₂ (NormEst); CGLS computes it from r (from a when r
// is nil, two passes over A), and SolveWithFactor takes it from its options
// when the caller has it. A run that reached the floor
// when the divergence guard trips stops as settled too: that is where a
// healthy refinement ends.
func CGLS(a *dense.M64, b []float64, r *dense.M32, tol float64, maxIter int) *IterResult {
	return cgls(a, b, r, operator{a, r}.norm(), tol, maxIter)
}

// cgls is CGLS with ν, the estimate of ‖A‖₂ its floor reads, given.
func cgls(a *dense.M64, b []float64, r *dense.M32, nu, tol float64, maxIter int) *IterResult {
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

	// Best-iterate tracking: once the gradient reaches the float64 floor,
	// further CG steps lose conjugacy and can diverge exponentially. We keep
	// the best solution seen and bail out when the gradient norm has grown
	// well past it (divergence), has stopped improving at the floor
	// (settled) or has stopped improving for a full window (stagnation).
	copy(bestX, x)
	bestNorm := norms0
	sinceImproved := 0
	atFloor := false // sticky: some iterate's ‖Aᵀ·res_k‖ reached the floor

	for k := 0; k < maxIter; k++ {
		op.apply(p, t, q) // t = R⁻¹·p, q = A·t
		delta := blas.Dot(q, q)
		if delta == 0 {
			break
		}
		alpha := gamma / delta
		blas.Axpy(alpha, t, x)
		blas.Axpy(-alpha, q, res)
		if atFloor {
			op.applyT(res, s)
		} else {
			grad := op.gradT(res, s)
			atFloor = grad <= accuracy.LLSAttainable(nu, blas.Nrm2(x), blas.Nrm2(res))
		}
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
			// Past the floor CG loses conjugacy; a run that reached the
			// floor has its answer, so the blow-up is no hazard.
			out.Stop = StopDiverged
			if atFloor {
				out.Stop = StopSettled
			}
			break
		}
		if atFloor && sinceImproved > 0 {
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
	op.solveT(out)
}

// gradT is applyT that also returns ‖Aᵀ·u‖, the norm of the vector it forms
// before the R⁻ᵀ solve: one more pass over n elements, none over A.
func (op operator) gradT(u, out []float64) float64 {
	blas.Gemv(blas.Trans, 1, op.a, u, 0, out)
	g := blas.Nrm2(out)
	op.solveT(out)
	return g
}

// solveT overwrites v with R⁻ᵀ·v.
func (op operator) solveT(v []float64) {
	if op.r != nil {
		blas.Trsv(blas.Upper, blas.Trans, blas.NonUnit, op.r, v)
	}
}

// norm estimates ‖A‖₂: NormEst of R, or of A itself when there is no
// preconditioner.
func (op operator) norm() float64 {
	if op.r != nil {
		return NormEst(op.r)
	}
	return normEst(op.a, false)
}

// NormEst estimates ‖R‖₂ of an upper-triangular R, which is ‖A‖₂ when R is
// the R of A's QR factorization: one step of the power method on RᵀR from
// e_j, j the column of R with the largest norm, ‖Rᵀ·R·e_j‖/‖R·e_j‖. The
// estimate lies between that column's norm and ‖R‖₂ (0.75–0.80 of ‖A‖₂ on
// the κ 1e3 geometric inputs at the benchmark's shapes), so a floor read
// with it errs low. It reads the triangle twice, accumulates in float64 and
// allocates nothing; R depends on the factorization alone, so a caller that
// solves many right-hand sides computes it once.
func NormEst(r *dense.M32) float64 { return normEst(r, true) }

// normEst is NormEst for any matrix; upper says that a is upper triangular,
// so that only the first j+1 elements of its column j are read.
func normEst[T dense.Float](a *dense.Matrix[T], upper bool) float64 {
	height := func(j int) int {
		if upper {
			return min(j+1, a.Rows)
		}
		return a.Rows
	}
	top, jmax := 0.0, -1
	for j := 0; j < a.Cols; j++ {
		var ss float64
		for _, v := range a.Col(j)[:height(j)] {
			ss += float64(float64(v) * float64(v))
		}
		if ss > top {
			top, jmax = ss, j
		}
	}
	if jmax < 0 {
		return 0
	}
	top = math.Sqrt(top)
	w := a.Col(jmax)[:height(jmax)]
	// ‖Rᵀ·w‖/‖w‖ as the norm of Rᵀ·(w/‖w‖), one element at a time.
	var ss float64
	for i := 0; i < a.Cols; i++ {
		col := a.Col(i)[:min(height(i), len(w))]
		var d float64
		for l, v := range col {
			d += float64(float64(v) * float64(w[l]))
		}
		d /= top
		ss += float64(d * d)
	}
	return math.Sqrt(ss)
}

// take cuts the first k elements off *w as a vector of capacity k, so no
// append can reach the vector cut after it.
func take(w *[]float64, k int) []float64 {
	v := (*w)[:k:k]
	*w = (*w)[k:]
	return v
}
