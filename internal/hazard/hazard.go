// Package hazard defines the numerical-hazard vocabulary shared by every
// layer of the repository: typed sentinel errors for the failure modes the
// paper's safeguards exist for (§3.3 re-orthogonalization, §3.5 column
// scaling, Algorithm 3 refinement), the policy switch that decides whether a
// detected hazard aborts the computation or triggers the fallback ladder,
// and the Report that records what tripped, what was retried, and which path
// finally produced the result.
//
// The design rule is "no silent garbage": any code path that can produce
// NaN/Inf output, a broken factor, or a stalled iteration must either return
// one of these typed errors or append an Event to the caller's Report. The
// public tcqr package re-exports the errors and the Event type so users can
// program against them with errors.Is.
package hazard

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"tcqr/internal/dense"
)

// Sentinel errors for the hazard classes the pipeline detects. Errors
// returned by the library wrap these, so errors.Is works across the stack.
var (
	// ErrNonFinite reports a NaN or Inf in an input (or, after every
	// fallback was exhausted, in an output).
	ErrNonFinite = errors.New("non-finite value (NaN or Inf)")
	// ErrEmpty reports an input with zero rows or columns where a
	// factorization needs at least one.
	ErrEmpty = errors.New("empty input")
	// ErrShape reports dimensions the algorithm cannot accept (m < n for the
	// tall-skinny factorizations, mismatched right-hand sides, ...).
	ErrShape = errors.New("invalid shape")
	// ErrBreakdown reports a numerical breakdown inside a factorization: a
	// non-SPD Gram matrix in CholQR, a zero or linearly dependent column in
	// a Gram-Schmidt panel, a non-finite factor.
	ErrBreakdown = errors.New("numerical breakdown")
	// ErrOverflow reports fp16 overflow in the simulated engine — the §3.5
	// catastrophe that column scaling exists to prevent.
	ErrOverflow = errors.New("fp16 overflow in neural engine")
)

// Policy decides what a detected hazard does to the computation.
type Policy int

const (
	// Fail (the zero value) turns every detected hazard into a typed error:
	// the computation stops at the first breakdown, overflow, or non-finite
	// value instead of returning garbage.
	Fail Policy = iota
	// Fallback enables the recovery ladder: a failed factorization is
	// refactored with column scaling, then after a breakdown on the MGS and
	// Householder panels, then on the later engines. Every recovery is
	// recorded in the Report. Refinement hazards are detection only under
	// either policy.
	Fallback
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Fail:
		return "fail"
	case Fallback:
		return "fallback"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Kind classifies a detected hazard.
type Kind int

const (
	// KindNonFinite: NaN/Inf encountered.
	KindNonFinite Kind = iota
	// KindOverflow: finite operands became ±Inf in the fp16 engine.
	KindOverflow
	// KindBreakdown: a panel factorizer broke down (non-SPD Gram matrix,
	// zero/dependent column, non-finite factor).
	KindBreakdown
	// KindStagnation: refinement stopped improving before its tolerance.
	KindStagnation
	// KindDivergence: refinement residuals grew past the divergence guard.
	KindDivergence
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNonFinite:
		return "non-finite"
	case KindOverflow:
		return "fp16-overflow"
	case KindBreakdown:
		return "breakdown"
	case KindStagnation:
		return "stagnation"
	case KindDivergence:
		return "divergence"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds returns every defined hazard kind in declaration order. Metrics
// layers use this to pre-seed per-kind counters (so a scrape always sees the
// full label set) and to normalize untrusted kind strings to a bounded
// vocabulary.
func Kinds() []Kind {
	return []Kind{
		KindNonFinite,
		KindOverflow,
		KindBreakdown,
		KindStagnation,
		KindDivergence,
	}
}

// Event records one detected hazard and what was done about it.
type Event struct {
	// Kind classifies the hazard.
	Kind Kind
	// Stage names where it was detected ("factorize", "engine", "cgls", ...).
	Stage string
	// Detail describes the trigger ("23 fp16 overflows", "CholQR: Gram
	// matrix not SPD at column 7", ...).
	Detail string
	// Action records the response ("retry with column scaling", "retry
	// with mgs panel", "keep best iterate"). Empty means detection only.
	Action string
}

// String renders the event for logs and CLI output.
func (e Event) String() string {
	s := fmt.Sprintf("[%s] %s: %s", e.Kind, e.Stage, e.Detail)
	if e.Action != "" {
		s += " -> " + e.Action
	}
	return s
}

// Report accumulates hazard events. The zero value is ready to use; its
// methods are safe on a nil receiver, so hazard-oblivious callers can simply
// pass nil, and safe for concurrent use, although every recorder today runs
// on the goroutine that owns the Report (Factorize's ladder, or one refined
// column).
type Report struct {
	mu     sync.Mutex
	events []Event
}

// Record appends an event. No-op on a nil receiver.
func (r *Report) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in detection order.
func (r *Report) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// finite reports whether every element of x is finite, without a branch per
// element: v − v is exactly 0 for every finite v and NaN for ±Inf or NaN, so
// four running sums of it stay 0 until a non-finite element turns one NaN,
// and NaN compares unequal to 0. ~4× faster than per-element IsNaN/IsInf
// calls, and it runs over every input and over full factors on every
// factorization and update.
func finite[T dense.Float](x []T) bool {
	var s0, s1, s2, s3 T
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] - x[i]
		s1 += x[i+1] - x[i+1]
		s2 += x[i+2] - x[i+2]
		s3 += x[i+3] - x[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] - x[i]
	}
	return s0+s1+s2+s3 == 0
}

// firstNonFinite returns the index of the first NaN or Inf in x, or -1. Only
// a slice that fails the finite scan is walked element by element.
func firstNonFinite[T dense.Float](x []T) int {
	if finite(x) {
		return -1
	}
	for i, v := range x {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return i
		}
	}
	return -1
}

// CheckVec returns ErrNonFinite (wrapped with the offending index) if x
// holds a NaN or Inf.
func CheckVec[T dense.Float](name string, x []T) error {
	if i := firstNonFinite(x); i >= 0 {
		return fmt.Errorf("%s[%d] = %v: %w", name, i, x[i], ErrNonFinite)
	}
	return nil
}

// CheckMatrix validates a factorization input: it must be non-nil, have at
// least one row and column, and contain only finite values. The returned
// errors wrap ErrEmpty / ErrNonFinite, the latter naming the first offender
// in column-major order.
func CheckMatrix[T dense.Float](name string, a *dense.Matrix[T]) error {
	if a == nil || a.Rows == 0 || a.Cols == 0 {
		return fmt.Errorf("%s is empty: %w", name, ErrEmpty)
	}
	for j := 0; j < a.Cols; j++ {
		col := a.Col(j)
		if i := firstNonFinite(col); i >= 0 {
			return fmt.Errorf("%s(%d,%d) = %v: %w", name, i, j, col[i], ErrNonFinite)
		}
	}
	return nil
}

// MatrixFinite reports whether every element of a is finite. Unlike
// CheckMatrix it has no opinion on emptiness — an empty matrix is finite.
func MatrixFinite[T dense.Float](a *dense.Matrix[T]) bool {
	for j := 0; j < a.Cols; j++ {
		if !finite(a.Col(j)) {
			return false
		}
	}
	return true
}
