package lls

import (
	"fmt"
	"math"

	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/rgs"
)

// Method selects the refinement engine used by SolveWithFactor.
type Method int

const (
	// MethodCGLS is Algorithm 3 — the paper's solver.
	MethodCGLS Method = iota
	// MethodLSQR swaps in preconditioned LSQR.
	MethodLSQR
	// 2 was classical residual-correction refinement, retired; the
	// tcqr.RefineMethod constants keep their numbers.
	_
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
	case MethodDirect:
		return "RGSQRF direct"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// SolveOptions configures SolveWithFactor.
type SolveOptions struct {
	// Method selects the refinement engine (default CGLS).
	Method Method
	// Tol is the relative refinement tolerance (default DefaultTol).
	Tol float64
	// MaxIter caps refinement iterations (default DefaultMaxIter).
	MaxIter int
	// NormA is the estimate of ‖A‖₂ CGLS's floor reads (0: NormEst of the
	// factorization's R). It depends on R alone, so a caller that solves
	// many right-hand sides over one factorization computes it once.
	NormA float64
	// Hazards, when non-nil, receives an event for every detected
	// refinement hazard (stagnation, divergence).
	Hazards *hazard.Report
}

// SolveWithFactor refines min ‖Ax − b‖ to double precision with the
// selected method over a precomputed float32 RGSQRF factorization f of A
// (one QR amortized over many right-hand sides). CGLS and LSQR read A and
// f.R alone; MethodDirect needs f.Q too, and is ErrShape without it. A CGLS
// run that stagnates or diverges keeps its best iterate (CGLS's own guard)
// and records one event in opts.Hazards. A run that settles keeps its best
// iterate too but records nothing: it stopped at the attainable float64
// floor (see CGLS), which is where a healthy refinement ends. It never
// re-solves, so its answer is the method's whatever the caller's hazard
// policy.
func SolveWithFactor(f *rgs.Result, a *dense.M64, b []float64, opts SolveOptions) (*IterResult, error) {
	if a.Rows < a.Cols || f.R != nil && f.R.Cols != a.Cols {
		return nil, fmt.Errorf("lls: the factorization's R does not fit the %dx%d A: %w", a.Rows, a.Cols, hazard.ErrShape)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("lls: rhs length %d, want %d: %w", len(b), a.Rows, hazard.ErrShape)
	}
	if err := hazard.CheckVec("b", b); err != nil {
		return nil, fmt.Errorf("lls: %w", err)
	}
	switch opts.Method {
	case MethodDirect:
		if f.Q == nil || f.Q.Rows != a.Rows {
			return nil, fmt.Errorf("lls: the direct solve needs the factorization's Q for A's %d rows: %w", a.Rows, hazard.ErrShape)
		}
		b32 := make([]float32, len(b))
		for i, v := range b {
			b32[i] = float32(v)
		}
		x32 := DirectRGS(f, b32)
		x := make([]float64, len(x32))
		for i, v := range x32 {
			x[i] = float64(v)
		}
		return &IterResult{X: x, Stop: StopConverged}, nil
	case MethodLSQR:
		return LSQR(a, b, f.R, opts.Tol, opts.MaxIter), nil
	case MethodCGLS: // below, which records its guards' events
	default:
		return nil, fmt.Errorf("lls: unknown method %d", opts.Method)
	}
	nu := opts.NormA
	if nu <= 0 {
		nu = operator{a, f.R}.norm()
	}
	res := cgls(a, b, f.R, nu, opts.Tol, opts.MaxIter)
	kind := hazard.KindStagnation
	switch res.Stop {
	case StopDiverged:
		kind = hazard.KindDivergence
	case StopStagnated:
	default:
		return res, nil
	}
	best := math.Inf(1) // the least of GradNorms, which a NaN never is
	for _, v := range res.GradNorms {
		if v < best {
			best = v
		}
	}
	detail := fmt.Sprintf("CGLS %s after %d iterations (grad %.3g, best %.3g)",
		res.Stop, res.Iterations, res.GradNorms[len(res.GradNorms)-1], best)
	opts.Hazards.Record(hazard.Event{Kind: kind, Stage: "cgls", Detail: detail, Action: "keep best iterate"})
	return res, nil
}
