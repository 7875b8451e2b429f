package tcqr

import (
	"fmt"

	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/lu"
)

// LinearSolveResult is the outcome of SolveLinearSystem.
type LinearSolveResult struct {
	X          []float64
	Iterations int
	Converged  bool
	// ResidualNorms[k] is ‖b − A·x_k‖ after k refinement steps.
	ResidualNorms []float64
	// GrowthFactor is max|U|/max|A| of the elimination — the quantity that
	// makes LU, unlike column-scaled QR, able to overflow a
	// limited-range format mid-factorization (§3.5 of the paper).
	GrowthFactor float64
	// Hazards lists detected LU hazards and, under HazardFallback, the
	// engine retries taken (bfloat16, then FP32).
	Hazards []Hazard
}

// SolveLinearSystem solves the square system A·x = b with the
// mixed-precision pipeline of the paper's closest related work (Haidar et
// al.): LU with partial pivoting whose trailing updates run on the
// simulated neural engine, followed by float64 iterative refinement. It is
// included as the LU counterpart of SolveLeastSquares so the QR-vs-LU
// co-design discussion in the paper's conclusion can be explored directly.
//
// Note the caveat this repository demonstrates in internal/lu's tests: LU's
// elimination growth is unbounded, so unlike the column-scaled QR there
// exist well-scaled inputs (growth factor ≳ 65504/max|A|) on which the
// half-precision engine overflows. Under the default HazardFail policy that
// surfaces as a typed error (wrapping ErrOverflow when the engine counted
// overflow events, ErrBreakdown otherwise); under HazardFallback the solve
// retries with the bfloat16 engine — whose exponent range matches float32,
// so LU growth cannot overflow it — and finally plain FP32.
func SolveLinearSystem(a *Matrix, b []float64, cfg Config) (*LinearSolveResult, error) {
	if err := hazard.CheckMatrix("A", a); err != nil {
		return nil, fmt.Errorf("tcqr: %w", err)
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("tcqr: matrix is %dx%d; SolveLinearSystem needs square: %w", a.Rows, a.Cols, ErrShape)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("tcqr: rhs length %d, want %d: %w", len(b), a.Rows, ErrShape)
	}
	if err := hazard.CheckVec("b", b); err != nil {
		return nil, fmt.Errorf("tcqr: %w", err)
	}
	a32 := dense.ToF32(a)
	rep := &hazard.Report{}
	// LU has no column scaling, so only the engine rungs apply.
	f, err := withConfigFallback(cfg, "lu", rep, engineRungs, func(c Config) (*lu.Factorization, error) {
		return luFactor(a32, c)
	})
	if err != nil {
		return nil, err
	}
	res := lu.SolveRefined(f, a, b, 0, 0)
	return &LinearSolveResult{
		X:             res.X,
		Iterations:    res.Iterations,
		Converged:     res.Converged,
		ResidualNorms: res.ResidualNorms,
		GrowthFactor:  f.GrowthFactor(a32),
		Hazards:       rep.Events(),
	}, nil
}

// luFactor runs one LU factorization with the engine cfg selects, verifying
// the factors are finite and classifying failures with the typed hazard
// errors.
func luFactor(a32 *Matrix32, cfg Config) (*lu.Factorization, error) {
	engine := cfg.Engine.New()
	f, err := lu.Factor(a32, lu.Options{Engine: engine})
	overflows := engine.Stats().Overflows
	if err != nil {
		if overflows > 0 {
			return nil, fmt.Errorf("tcqr: after %d fp16 overflow events: %w: %w", overflows, ErrOverflow, err)
		}
		return nil, fmt.Errorf("tcqr: %w: %w", ErrBreakdown, err)
	}
	if !hazard.MatrixFinite(f.LU) {
		if overflows > 0 {
			return nil, fmt.Errorf("tcqr: LU factors are non-finite after %d fp16 overflow events: %w: %w",
				overflows, ErrOverflow, ErrNonFinite)
		}
		return nil, fmt.Errorf("tcqr: LU factors are non-finite: %w", ErrNonFinite)
	}
	return f, nil
}
