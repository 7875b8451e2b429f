package lls

import (
	"fmt"
	"math"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/rgs"
)

// RefineQR performs classical iterative refinement for least squares (the
// "iterative refinement in the literature" of Section 3.2.3, in its simple
// residual-correction form): starting from the low-precision direct
// solution, repeatedly compute the residual in float64 and solve for a
// correction with the same float32 QR factors. It converges when
// κ(A)·ε_half ≪ 1 but, unlike the Krylov refinement, stalls once the
// correction equation itself is too inaccurate — which is why the paper
// prefers CGLS.
func RefineQR(f *rgs.Result, a *dense.M64, b []float64, tol float64, maxIter int) *IterResult {
	m, n := a.Rows, a.Cols
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	x := make([]float64, n)
	res := make([]float64, m)
	grad := make([]float64, n)
	r32 := make([]float32, m)
	out := &IterResult{X: x}
	var grad0 float64
	for k := 0; k <= maxIter; k++ {
		// res = b − A·x, gradient g = Aᵀ·res, both in float64.
		copy(res, b)
		blas.Gemv(blas.NoTrans, -1, a, x, 1, res)
		blas.Gemv(blas.Trans, 1, a, res, 0, grad)
		g := blas.Nrm2(grad)
		out.GradNorms = append(out.GradNorms, g)
		if k == 0 {
			grad0 = g
		}
		if g <= tol*grad0 || grad0 == 0 {
			out.Converged = true
			break
		}
		if k == maxIter {
			break
		}
		// Correction d = R⁻¹·Qᵀ·res with the float32 factors.
		for i, v := range res {
			r32[i] = float32(v)
		}
		d := DirectRGS(f, r32)
		for i := range x {
			x[i] += float64(d[i])
		}
		out.Iterations = k + 1
	}
	return out
}

// Method selects the refinement engine used by SolveWithFactor.
type Method int

const (
	// MethodCGLS is Algorithm 3 — the paper's solver.
	MethodCGLS Method = iota
	// MethodLSQR swaps in preconditioned LSQR.
	MethodLSQR
	// MethodRefine uses classical residual-correction refinement.
	MethodRefine
	// MethodDirect returns the float32 direct solution without refinement
	// (the "RGSQRF direct solver" of Figure 9).
	MethodDirect
)

// String names the method as the paper does.
func (m Method) String() string {
	switch m {
	case MethodCGLS:
		return "RGSQRF+CGLS"
	case MethodLSQR:
		return "RGSQRF+LSQR"
	case MethodRefine:
		return "RGSQRF+IR"
	case MethodDirect:
		return "RGSQRF direct"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// SolveOptions configures SolveWithFactor and SolveMultiWithFactor.
type SolveOptions struct {
	// Method selects the refinement engine (default CGLS).
	Method Method
	// Tol is the relative refinement tolerance (default DefaultTol).
	Tol float64
	// MaxIter caps refinement iterations (default DefaultMaxIter).
	MaxIter int
	// Hazards, when non-nil, receives an event for every detected
	// refinement hazard (stagnation, divergence).
	Hazards *hazard.Report
}

// Solution is the result of refining one right-hand side over an RGSQRF
// factorization.
type Solution struct {
	X          []float64
	Iterations int
	Converged  bool
	GradNorms  []float64
}

// SolveWithFactor refines min ‖Ax − b‖ to double precision with the
// selected method over a precomputed float32 RGSQRF factorization f of A
// (one QR amortized over many right-hand sides).
func SolveWithFactor(f *rgs.Result, a *dense.M64, b []float64, opts SolveOptions) (*Solution, error) {
	if f.Q.Rows != a.Rows || f.Q.Cols != a.Cols {
		return nil, fmt.Errorf("lls: factorization is %dx%d but A is %dx%d: %w", f.Q.Rows, f.Q.Cols, a.Rows, a.Cols, hazard.ErrShape)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("lls: rhs length %d, want %d: %w", len(b), a.Rows, hazard.ErrShape)
	}
	if err := hazard.CheckVec("b", b); err != nil {
		return nil, fmt.Errorf("lls: %w", err)
	}
	res, err := refineColumn(f, a, b, opts)
	if err != nil {
		return nil, err
	}
	return &Solution{X: res.X, Iterations: res.Iterations, Converged: res.Converged, GradNorms: res.GradNorms}, nil
}

// refineColumn is the one per-column refiner: it solves min ‖Ax − b‖ for a
// single validated right-hand side with opts.Method over the factorization
// f. SolveWithFactor runs it once, SolveMultiWithFactor once per column, so
// a right-hand side gets the same answer alone or in a block.
func refineColumn(f *rgs.Result, a *dense.M64, b []float64, opts SolveOptions) (*IterResult, error) {
	switch opts.Method {
	case MethodDirect:
		b32 := make([]float32, len(b))
		for i, v := range b {
			b32[i] = float32(v)
		}
		x32 := DirectRGS(f, b32)
		x := make([]float64, len(x32))
		for i, v := range x32 {
			x[i] = float64(v)
		}
		return &IterResult{X: x, Converged: true}, nil
	case MethodRefine:
		return RefineQR(f, a, b, opts.Tol, opts.MaxIter), nil
	case MethodLSQR:
		return LSQR(a, b, f.R64(), opts.Tol, opts.MaxIter), nil
	case MethodCGLS:
		return RefineCGLS(a, b, f.R64(), opts), nil
	}
	return nil, fmt.Errorf("lls: unknown method %d", opts.Method)
}

// RefineCGLS runs the Algorithm 3 CGLS refinement with hazard detection: a
// run that stagnates or diverges keeps its best iterate (CGLS's own guard)
// and records one event in opts.Hazards. It never re-solves, so its answer
// is CGLS's whatever the caller's hazard policy. r64 is the float64
// preconditioner.
func RefineCGLS(a *dense.M64, b []float64, r64 *dense.M64, opts SolveOptions) *IterResult {
	res := CGLS(a, b, r64, opts.Tol, opts.MaxIter)
	if !res.Stagnated && !res.Diverged {
		return res
	}
	kind, errName := hazard.KindStagnation, "stagnated"
	if res.Diverged {
		kind, errName = hazard.KindDivergence, "diverged"
	}
	detail := fmt.Sprintf("CGLS %s after %d iterations (grad %.3g, best %.3g)",
		errName, res.Iterations, res.GradNorms[len(res.GradNorms)-1], minNorm(res.GradNorms))
	opts.Hazards.Record(hazard.Event{Kind: kind, Stage: "cgls", Detail: detail, Action: "keep best iterate"})
	return res
}

func minNorm(norms []float64) float64 {
	best := math.Inf(1)
	for _, v := range norms {
		if v < best {
			best = v
		}
	}
	return best
}
