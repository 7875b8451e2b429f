package tcqr

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"tcqr/internal/accuracy"
	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/lls"
	"tcqr/internal/rgs"
	"tcqr/internal/tcsim"
)

// Factorization is a thin QR factorization A = Q·R with Q (m×n) having
// orthonormal columns and R (n×n) upper triangular.
type Factorization struct {
	Q *Matrix32
	R *Matrix32
	// ColumnScales are the power-of-two scales applied per column by the
	// overflow safeguard (nil if scaling was disabled). R is already
	// expressed for the unscaled A.
	ColumnScales []float32
	// Reorthogonalized records whether the second orthogonalization pass
	// ran.
	Reorthogonalized bool
	// EngineStats summarizes the neural-engine work (zero value when the
	// engine was disabled).
	EngineStats EngineStats
	// Hazards lists every numerical hazard detected during the
	// factorization and, under HazardFallback, every recovery taken (scaling,
	// panel and engine retries). Empty for a clean run.
	Hazards []Hazard

	// normA memoizes lls.NormEst of normR, the estimate of ‖A‖₂ that CGLS's
	// stop rule reads (as Float64bits). It depends on R alone, so the first
	// solve over f computes it and the rest, concurrent ones included, read
	// it; a caller that gives f another R gets a fresh estimate. Two atomics
	// rather than one pointer to an (R, estimate) pair, so that no solve
	// allocates for it. They make a Factorization noCopy under go vet: build
	// a new one rather than copy *f.
	normA atomic.Uint64
	normR atomic.Pointer[Matrix32]
}

// Factorize computes the RGSQRF factorization of a (m×n, m >= n) on the
// simulated neural engine. The input is not modified. a is either width: a
// float64 a (*Matrix) is factored exactly as its float32 narrowing
// ToFloat32(a) would be, without that copy, because each rung of the ladder
// factors a itself and rgs.Factor narrows, checks and scales it in one sweep
// into the buffer that becomes Q. The first rung's sweep is the input check:
// an input it rejects has no rung to fall back on.
//
// Inputs containing NaN or Inf, or (float64) elements beyond the float32
// range, are rejected with an error wrapping ErrNonFinite; nil or zero-sized
// inputs with ErrEmpty; wide inputs with ErrShape. Numerical hazards during
// the factorization — fp16 engine overflow, panel breakdown — follow
// cfg.OnHazard: under HazardFail they return errors wrapping ErrOverflow /
// ErrBreakdown / ErrNonFinite, under HazardFallback the computation retries
// along the fallback ladder and reports what happened in
// Factorization.Hazards. A recovered factorization is exactly
// Factorize(a, c) for the Config c of the rung that produced it.
func Factorize[T float32 | float64](a *dense.Matrix[T], cfg Config) (*Factorization, error) {
	return factorize(a, cfg, nil)
}

// FactorizeR is Factorize for a caller that reads R and not Q, as the
// paper's Algorithm 3 refines with A and R alone: it runs the same ladder and
// returns the same R, ColumnScales, Reorthogonalized, EngineStats and
// Hazards, or the same error, bit for bit, with Q nil. The m×n float32
// buffer that would have become Q comes from a free list and goes back to it
// once the factors have been checked finite, so a warm FactorizeR allocates
// little beyond R. Every method that reads Q — BackwardError, OrthogonalityError,
// UpdateAppendRows, UpdateRemoveRows, and a solve with RefineNone — needs
// Factorize's result instead.
func FactorizeR[T float32 | float64](a *dense.Matrix[T], cfg Config) (*Factorization, error) {
	if a == nil || a.Cols == 0 || a.Rows < a.Cols {
		return factorize(a, cfg, nil)
	}
	work := workspaces.Get()
	defer workspaces.Put(work)
	*work = slices.Grow((*work)[:0], a.Rows*a.Cols)
	f, err := factorize(a, cfg, *work)
	if f != nil {
		f.Q = nil
	}
	return f, err
}

// workspaces holds the buffers FactorizeR factors in, on a free list like
// every workspace of the numerical core. A buffer grows to the largest matrix
// its callers have factored and stays that size.
var workspaces blas.FreeList[[]float32]

// factorize is Factorize, each rung factoring in work (rgs.FactorIn).
func factorize[T float32 | float64](a *dense.Matrix[T], cfg Config, work []float32) (*Factorization, error) {
	if a == nil || a.Cols == 0 || a.Rows < a.Cols {
		// Empty or wide: the checks in the order callers have always seen
		// them, finiteness before shape.
		if err := rgs.CheckInput(a); err != nil {
			return nil, fmt.Errorf("tcqr: %w", err)
		}
		return nil, fmt.Errorf("tcqr: matrix is %dx%d; RGSQRF requires m >= n: %w", a.Rows, a.Cols, ErrShape)
	}
	rep := &hazard.Report{}
	f, err := factorizeOnce(a, cfg, rep, work)
	if err != nil && cfg.OnHazard == HazardFallback {
		// The ladder is built from the first failure (the panel and engine
		// rungs depend on whether it was an overflow); each rung is recorded,
		// with the latest failure, before it runs.
		for _, r := range engineLadder(cfg, err) {
			rep.Record(hazard.Event{Kind: classify(err), Stage: "factorize", Detail: err.Error(), Action: r.action})
			if f, err = factorizeOnce(a, r.cfg, rep, work); err == nil {
				break
			}
		}
	}
	var in *rgs.InputError
	if errors.As(err, &in) {
		return nil, fmt.Errorf("tcqr: %w", in.Err)
	}
	if err != nil {
		return nil, err
	}
	f.Hazards = rep.Events()
	return f, nil
}

// factorizeOnce runs one rung of the factorization ladder: build the engine
// and panel for cfg, factor in work, collect statistics, and verify the
// factors are finite. The engine runs the split GEMMs, so its counters cover
// all of the factorization's engine work. Engine overflow with finite factors
// is recorded as a detection-only event; overflow followed by a failure or
// non-finite factors becomes an error wrapping ErrOverflow, and non-finite
// factors are refused either way. Engines always track overflow/underflow
// events — the hazard layer needs them to classify failures, and counting is
// fused into the GEMM packing pass so it is nearly free.
func factorizeOnce[T dense.Float](a *dense.Matrix[T], cfg Config, rep *hazard.Report, work []float32) (*Factorization, error) {
	engine := cfg.Engine.New()
	res, err := rgs.FactorIn(work, a, rgs.Options{
		Engine:          engine,
		Panel:           cfg.gramPanel(),
		Cutoff:          cfg.Cutoff,
		DisableScaling:  cfg.DisableColumnScaling,
		ReOrthogonalize: cfg.ReOrthogonalize,
	})
	var stats tcsim.Stats // EngineStats is the neural-engine work: none on plain fp32
	if cfg.Engine.Neural() {
		stats = engine.Stats()
	}
	if err != nil {
		if stats.Overflows > 0 {
			return nil, fmt.Errorf("tcqr: after %d fp16 overflow events: %w: %w", stats.Overflows, ErrOverflow, err)
		}
		return nil, err
	}
	if !rgs.Finite(res.Q) || !hazard.MatrixFinite(res.R) {
		if stats.Overflows > 0 {
			return nil, fmt.Errorf("tcqr: factors are non-finite after %d fp16 overflow events: %w: %w",
				stats.Overflows, ErrOverflow, ErrNonFinite)
		}
		return nil, fmt.Errorf("tcqr: factors are non-finite: %w", ErrNonFinite)
	}
	if stats.Overflows > 0 {
		rep.Record(hazard.Event{
			Kind:   hazard.KindOverflow,
			Stage:  "engine",
			Detail: fmt.Sprintf("%d fp16 overflow events during operand rounding", stats.Overflows),
			Action: "factors finite; no action",
		})
	}
	return &Factorization{
		Q:                res.Q,
		R:                res.R,
		ColumnScales:     res.ColumnScales,
		Reorthogonalized: res.Reorthogonalized,
		EngineStats: EngineStats{
			GemmCalls:  stats.Calls,
			Flops:      stats.Flops,
			Overflows:  stats.Overflows,
			Underflows: stats.Underflow,
		},
	}, nil
}

// rung is one step of the Factorize ladder, the library's one recovery
// ladder: a modified configuration and the action string recorded when it is
// tried.
type rung struct {
	cfg    Config
	action string
}

// engineLadder builds the Factorize recovery sequence for cfg given the
// error that tripped the fallback. Rungs accumulate: each keeps what the
// rungs before it changed. Column scaling goes back on if it was off; after a
// breakdown (not an overflow, which no panel causes) each panel sturdier
// than cfg.Panel follows; then, on the last of those panels, each engine of
// cfg.Engine's recovery order (tcsim.Kind.Recovery, which skips the
// fp16-range engines after an fp16 overflow).
func engineLadder(cfg Config, err error) []rung {
	if errors.As(err, new(*rgs.InputError)) {
		return nil // no configuration factors a non-finite input
	}
	var out []rung
	if cfg.DisableColumnScaling {
		cfg.DisableColumnScaling = false
		out = append(out, rung{cfg, "retry with column scaling"})
	}
	if classify(err) == hazard.KindBreakdown {
		for _, p := range cfg.Panel.sturdier() {
			cfg.Panel = p
			out = append(out, rung{cfg, "retry with " + p.String() + " panel"})
		}
	}
	for _, k := range cfg.Engine.Recovery(errors.Is(err, ErrOverflow)) {
		cfg.Engine = k
		out = append(out, rung{cfg, "retry with " + k.RungName() + " engine"})
	}
	return out
}

// classify maps a factorization error to the hazard kind recorded in the
// fallback events.
func classify(err error) HazardKind {
	switch {
	case errors.Is(err, ErrOverflow):
		return hazard.KindOverflow
	case errors.Is(err, ErrBreakdown):
		return hazard.KindBreakdown
	default:
		return hazard.KindNonFinite
	}
}

// BackwardError returns ‖A − QR‖_F/‖A‖_F of the factorization against the
// original matrix, evaluated in float64 (the Figure 3 metric).
func (f *Factorization) BackwardError(a *Matrix32) float64 {
	return accuracy.BackwardError(a, f.Q, f.R)
}

// OrthogonalityError returns ‖I − QᵀQ‖_F in float64 (the Figure 4 metric).
func (f *Factorization) OrthogonalityError() float64 {
	return accuracy.OrthoError(f.Q)
}

// normEst returns lls.NormEst(f.R), computed once per R. Solves that race
// on the first call compute the same value, and each stores the estimate
// before the R it belongs to, so a reader that sees f.R in normR reads its
// estimate.
func (f *Factorization) normEst() float64 {
	if f.normR.Load() == f.R {
		return math.Float64frombits(f.normA.Load())
	}
	nu := lls.NormEst(f.R)
	f.normA.Store(math.Float64bits(nu))
	f.normR.Store(f.R)
	return nu
}

// inner is the internal factorization view of f, the form the internal
// solvers take. It shares f's Q and R and derives nothing from them.
func (f *Factorization) inner() *rgs.Result {
	return &rgs.Result{Q: f.Q, R: f.R, ColumnScales: f.ColumnScales, Reorthogonalized: f.Reorthogonalized}
}
