package tcqr

import (
	"fmt"

	"tcqr/internal/accuracy"
	"tcqr/internal/hazard"
	"tcqr/internal/lls"
)

// RefineMethod selects how a least squares solution is refined to high
// accuracy after the half-precision factorization.
type RefineMethod = lls.Method

const (
	// RefineCGLS is Algorithm 3 of the paper: conjugate gradients on the
	// preconditioned normal equations with R as right preconditioner.
	// This is the default and reaches double-precision optimality.
	RefineCGLS = lls.MethodCGLS
	// RefineLSQR uses preconditioned LSQR instead. It converges where CGLS
	// trips its divergence guard on fp16 and bf16 factors of inputs with
	// κ ≥ 1e6 and arithmetic or clustered spectra.
	RefineLSQR = lls.MethodLSQR
	// RefineNone returns the float32 direct solution x = R⁻¹Qᵀb.
	RefineNone = lls.MethodDirect
)

// LeastSquaresResult is the outcome of SolveLeastSquares.
type LeastSquaresResult struct {
	// X minimizes ‖Ax − b‖₂.
	X []float64
	// Iterations is the number of refinement iterations performed.
	Iterations int
	// Converged reports whether the refinement met its tolerance.
	Converged bool
	// Optimality is ‖Aᵀ(Ax − b)‖₂, the paper's Figure 9 accuracy metric,
	// evaluated in float64.
	Optimality float64
	// Factorization is the RGSQRF factor used (reusable via
	// SolveLeastSquaresWithFactor for further right-hand sides). From
	// SolveLeastSquares it holds R and no Q (FactorizeR's result), unless the
	// method is RefineNone, whose direct solve needs Q: reusing an R-only
	// factor with RefineCGLS or RefineLSQR works, with RefineNone it is an
	// ErrShape error.
	Factorization *Factorization
	// Hazards lists every numerical hazard detected across the pipeline —
	// factorization hazards first (with the recoveries of Config.OnHazard),
	// then refinement hazards (CGLS stagnation or divergence, detection
	// only). Empty for a clean run.
	Hazards []Hazard
}

// SolveOptions configures SolveLeastSquares. The refinement never re-solves:
// a solve's X, Iterations, Converged, Optimality and refinement hazards
// depend only on the factorization, b, Method, Tol and MaxIterations.
type SolveOptions struct {
	// QR configures the factorization stage, its hazard policy included.
	QR Config
	// Method selects the refinement engine (default RefineCGLS).
	Method RefineMethod
	// Tol is the relative convergence tolerance on the preconditioned
	// gradient (0 = 1e-14, effectively double precision).
	Tol float64
	// MaxIterations caps refinement (0 = 200, the paper's stress limit).
	MaxIterations int
}

// refine maps the public options onto the internal refiner's, recording
// refinement hazards in rep.
func (o SolveOptions) refine(rep *hazard.Report) lls.SolveOptions {
	return lls.SolveOptions{
		Method:  o.Method,
		Tol:     o.Tol,
		MaxIter: o.MaxIterations,
		Hazards: rep,
	}
}

// SolveLeastSquares solves min ‖Ax − b‖₂ for a tall full-column-rank A
// using the paper's pipeline: narrow A to float32, factor it with the
// neural-engine RGSQRF, then refine to double precision. The refinement
// (Algorithm 3) reads A, b and R alone, so the factor is FactorizeR(a,
// opts.QR): Factorize's R, ColumnScales and hazards bit for bit, with no Q
// (its m×n buffer is pooled). RefineNone's direct solve x = R⁻¹Qᵀb reads Q,
// so that method factors with Factorize(a, opts.QR). Either way the first
// sweep is the narrowing, so the factor is that of ToFloat32(a) without a
// float32 copy of A. Malformed inputs (NaN/Inf or beyond the float32 range,
// empty, mismatched shapes) return typed errors; factorization hazards
// follow opts.QR.OnHazard.
func SolveLeastSquares(a *Matrix, b []float64, opts SolveOptions) (*LeastSquaresResult, error) {
	factorize := FactorizeR[float64]
	if opts.Method == RefineNone {
		factorize = Factorize[float64]
	}
	f, err := factorize(a, opts.QR)
	if err != nil {
		return nil, err
	}
	return SolveLeastSquaresWithFactor(f, a, b, opts)
}

// SolveLeastSquaresWithFactor reuses an existing factorization of A for a
// new right-hand side (one QR amortized over many solves).
func SolveLeastSquaresWithFactor(f *Factorization, a *Matrix, b []float64, opts SolveOptions) (*LeastSquaresResult, error) {
	rep := &hazard.Report{}
	sol, err := lls.SolveWithFactor(f.inner(), a, b, opts.refine(rep))
	if err != nil {
		return nil, fmt.Errorf("tcqr: %w", err)
	}
	return &LeastSquaresResult{
		X:             sol.X,
		Iterations:    sol.Iterations,
		Converged:     sol.Converged(),
		Optimality:    accuracy.LLSOptimality(a, sol.X, b),
		Factorization: f,
		// The factorization's hazards, then this right-hand side's.
		Hazards: append(append([]Hazard(nil), f.Hazards...), rep.Events()...),
	}, nil
}
