package tcqr

import "tcqr/internal/hazard"

// Typed sentinel errors for every failure mode the library detects. Errors
// returned by Factorize, SolveLeastSquares, LowRank and the updates wrap
// these, so callers can classify failures with errors.Is regardless of how
// deep in the stack the hazard tripped.
var (
	// ErrNonFinite reports a NaN or Inf in an input (or, after the fallback
	// ladder was exhausted, in an output).
	ErrNonFinite = hazard.ErrNonFinite
	// ErrEmpty reports a nil input or one with zero rows or columns.
	ErrEmpty = hazard.ErrEmpty
	// ErrShape reports dimensions the algorithm cannot accept (m < n for the
	// tall-skinny factorizations, mismatched right-hand sides).
	ErrShape = hazard.ErrShape
	// ErrBreakdown reports a numerical breakdown inside a factorization: a
	// zero or linearly dependent column in a Gram-Schmidt panel, a
	// non-finite factor.
	ErrBreakdown = hazard.ErrBreakdown
	// ErrOverflow reports fp16 overflow in the simulated neural engine — the
	// §3.5 catastrophe that column scaling exists to prevent.
	ErrOverflow = hazard.ErrOverflow
)

// HazardPolicy decides what a detected numerical hazard does to a
// factorization or update; it is set via Config.OnHazard, the
// one hazard knob (a least squares solve takes it from SolveOptions.QR).
type HazardPolicy = hazard.Policy

const (
	// HazardFail (the zero value) turns every hazard that would corrupt the
	// result into a typed error: the computation stops at the first
	// breakdown, overflow, or non-finite value instead of returning garbage.
	HazardFail = hazard.Fail
	// HazardFallback enables the recovery ladder, Factorize's and the only
	// one: a failed factorization is refactored whole with column scaling,
	// then after a breakdown on the MGS and Householder panels, then on the
	// later engines of the recovery order (after an fp16 overflow: bfloat16,
	// then plain FP32). Every recovery is recorded in the result's Hazards,
	// and a recovered factorization is the plain Factorize of the
	// configuration its last recovery names. A downdate that breaks down
	// records one event and returns Factorize of the remaining rows; an
	// append has no recovery and fails alike under either policy.
	// Refinement has no rung: CGLS stagnation or divergence keeps the best
	// iterate and is recorded under either policy.
	HazardFallback = hazard.Fallback
)

// Hazard is one detected numerical hazard and the action taken in response,
// as recorded in Factorization.Hazards / LeastSquaresResult.Hazards.
type Hazard = hazard.Event

// HazardKind classifies a Hazard.
type HazardKind = hazard.Kind

// The hazard classes the pipeline distinguishes.
const (
	HazardNonFinite  = hazard.KindNonFinite
	HazardOverflow   = hazard.KindOverflow
	HazardBreakdown  = hazard.KindBreakdown
	HazardStagnation = hazard.KindStagnation
	HazardDivergence = hazard.KindDivergence
)
