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
