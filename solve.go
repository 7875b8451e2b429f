package tcqr

import (
	"fmt"
	"runtime"
	"sync"

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
	// SolveLeastSquaresWithFactor for further right-hand sides).
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
// neural-engine RGSQRF, then refine to double precision. The factor is
// Factorize(a, opts.QR), whose first sweep is the narrowing, so it is bit for
// bit Factorize(ToFloat32(a), opts.QR) without a float32 copy of A. Malformed
// inputs (NaN/Inf or beyond the float32 range, empty, mismatched shapes)
// return typed errors; factorization hazards follow opts.QR.OnHazard.
func SolveLeastSquares(a *Matrix, b []float64, opts SolveOptions) (*LeastSquaresResult, error) {
	f, err := Factorize(a, opts.QR)
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
		Hazards:       f.withHazards(rep.Events()),
	}, nil
}

// withHazards lists the factorization's hazards followed by the refinement
// events of one right-hand side.
func (f *Factorization) withHazards(events []Hazard) []Hazard {
	return append(append([]Hazard(nil), f.Hazards...), events...)
}

// MultiResult is the outcome of SolveLeastSquaresMultiWithFactor: column j of X
// minimizes ‖A·X[:,j] − B[:,j]‖, with the same per-column figures a
// LeastSquaresResult reports for a single right-hand side.
type MultiResult struct {
	X          *Matrix
	Iterations []int
	Converged  []bool
	Optimality []float64
	// Factorization is the shared RGSQRF factor (one QR amortized over
	// all right-hand sides — the economics behind Figure 8's pipeline).
	Factorization *Factorization
	// Hazards[j] lists the factorization's hazards followed by column j's
	// refinement hazards — what SolveLeastSquaresWithFactor reports for
	// B[:,j] alone.
	Hazards [][]Hazard
}

// SolveLeastSquaresMultiWithFactor is SolveLeastSquaresWithFactor for a
// block of right-hand sides over one factorization of A: it runs that solve
// on every column of B concurrently, so column j is its answer for B[:,j] bit
// for bit, hazards included, and returns the first error in column order.
func SolveLeastSquaresMultiWithFactor(f *Factorization, a *Matrix, b *Matrix, opts SolveOptions) (*MultiResult, error) {
	if b == nil || b.Rows != a.Rows {
		rows := -1
		if b != nil {
			rows = b.Rows
		}
		return nil, fmt.Errorf("tcqr: lls: B has %d rows but A has %d: %w", rows, a.Rows, ErrShape)
	}
	if f.Q.Rows != a.Rows || f.Q.Cols != a.Cols {
		return nil, fmt.Errorf("tcqr: lls: factorization is %dx%d but A is %dx%d: %w", f.Q.Rows, f.Q.Cols, a.Rows, a.Cols, ErrShape)
	}
	if err := hazard.CheckMatrix("B", b); err != nil {
		return nil, fmt.Errorf("tcqr: lls: %w", err)
	}
	nrhs := b.Cols
	out := &MultiResult{
		X:             NewMatrix(a.Cols, nrhs),
		Iterations:    make([]int, nrhs),
		Converged:     make([]bool, nrhs),
		Optimality:    make([]float64, nrhs),
		Factorization: f,
		Hazards:       make([][]Hazard, nrhs),
	}
	errs := make([]error, nrhs)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for j := range nrhs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			sol, err := SolveLeastSquaresWithFactor(f, a, b.Col(j), opts)
			if err != nil {
				errs[j] = err
				return
			}
			copy(out.X.Col(j), sol.X)
			out.Iterations[j], out.Converged[j] = sol.Iterations, sol.Converged
			out.Optimality[j], out.Hazards[j] = sol.Optimality, sol.Hazards
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
