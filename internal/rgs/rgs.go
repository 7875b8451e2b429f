// Package rgs implements the paper's primary contribution: RGSQRF, the
// recursive Gram-Schmidt QR factorization (Algorithm 1) that routes almost
// all of its floating point work through large GEMMs so a neural engine
// (TensorCore) can execute them, together with the two safeguards the paper
// attaches to it:
//
//   - automatic column scaling (Section 3.5), which maps every column of A
//     into the binary16 range so the half-precision GEMMs can never
//     overflow — scaling columns changes R (R ← R·P) but provably leaves Q
//     untouched;
//   - re-orthogonalization (Section 3.3), "twice is enough": factoring the
//     computed Q a second time restores orthogonality to working precision
//     for ill-conditioned inputs.
//
// The recursion is Algorithm 1 verbatim (gram.Recurse, shared with the CAQR
// panel's own width reduction): split the columns in half, factor the left
// half, form R12 = Q1ᵀ·A2 and the update A2 ← A2 − Q1·R12 with two GEMMs,
// factor the updated right half, assemble. At the cutoff width the panel
// factorizer takes over (CAQR by default, Householder for the Figure 6
// ablation). Factor wraps the recursion in the two safeguards.
package rgs

import (
	"fmt"
	"math"
	"sync/atomic"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/gram"
	"tcqr/internal/hazard"
	"tcqr/internal/tcsim"
)

// DefaultCutoff is the recursion cutoff of Algorithm 1: panels of this
// width (or less) are handed to the panel factorizer.
const DefaultCutoff = 128

// Options configures a factorization. The zero value reproduces the paper's
// best configuration: TensorCore GEMM in the update, FP32 CAQR panel,
// cutoff 128, column scaling on, re-orthogonalization off.
type Options struct {
	// Engine executes the split GEMMs (R12 and the trailing update). nil
	// selects the TensorCore simulator — the paper's headline setting.
	Engine tcsim.Engine
	// Panel factors width <= Cutoff panels. nil selects the FP32 CAQR
	// panel.
	Panel gram.Panel
	// Cutoff is the recursion cutoff width; <= 0 selects DefaultCutoff.
	Cutoff int
	// DisableScaling turns off the Section 3.5 column scaling. Scaling is
	// exact (powers of two) and cheap, so it is on by default.
	DisableScaling bool
	// ReOrthogonalize runs the "twice is enough" pass: Q ← Q₂ where
	// Q = Q₂·R₂, R ← R₂·R.
	ReOrthogonalize bool
}

func (o *Options) engine() tcsim.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return defaultTC
}

func (o *Options) panel() gram.Panel {
	if o.Panel != nil {
		return o.Panel
	}
	return defaultPanel
}

func (o *Options) cutoff() int {
	if o.Cutoff > 0 {
		return o.Cutoff
	}
	return DefaultCutoff
}

var (
	defaultTC    = &tcsim.TensorCore{}
	defaultPanel = &gram.CAQRPanel{}
)

// Result is a computed factorization A = Q·R with Q m×n orthonormal and R
// n×n upper triangular, both in float32. It holds nothing derived from them:
// the refinement preconditions with R as it stands, widening each element as
// it loads it, so a solved factorization is as large as an unsolved one.
type Result struct {
	Q *dense.M32
	R *dense.M32
	// ColumnScales holds the power-of-two scale applied to each column
	// before factorization (nil when scaling was disabled). R has already
	// been unscaled; the scales are reported for diagnostics only.
	ColumnScales []float32
	// Reorthogonalized records whether the second pass ran.
	Reorthogonalized bool
}

// Factor computes the RGSQRF factorization of a (m×n, m >= n) inside the
// paper's two safeguards, in one m×n float32 buffer that becomes Q. One sweep
// over a narrows each column into the buffer at the width a has (a float64 a
// needs no float32 copy of its own), checks it, and scales it by a power of
// two unless DisableScaling (Section 3.5); the recursion and its panels then
// overwrite the buffer with Q, R is unscaled exactly, and under
// ReOrthogonalize the computed Q is factored a second time in place and R ←
// R₂·R (Section 3.3). The input is not modified. Hazards are typed: an input
// that is not finite in float32 — a NaN, an Inf, or a float64 element beyond
// the float32 range — returns an *InputError wrapping hazard.ErrNonFinite,
// and a panel breakdown (zero or dependent column, non-SPD Gram matrix) an
// error wrapping hazard.ErrBreakdown. Recovery is the caller's:
// tcqr.Factorize refactors the whole input on a sturdier configuration.
func Factor[T dense.Float](a *dense.Matrix[T], opts Options) (*Result, error) {
	return FactorIn(nil, a, opts)
}

// FactorIn is Factor in the caller's workspace: the buffer that becomes Q is
// work[:m·n], whose contents are overwritten unread, or a new one when work
// holds fewer than m·n elements. The result is Factor's, bit for bit; only Q
// shares storage with work, so a caller that reuses work for the next
// factorization must be done with this Q.
func FactorIn[T dense.Float](work []float32, a *dense.Matrix[T], opts Options) (*Result, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("rgs: matrix is %dx%d; RGSQRF requires m >= n: %w", m, n, hazard.ErrShape)
	}
	if n == 0 {
		return &Result{Q: dense.New[float32](m, 0), R: dense.New[float32](0, 0)}, nil
	}
	var w *dense.M32
	if cap(work) >= m*n {
		w = dense.NewFromColMajor(m, n, work[:m*n])
	} else {
		w = dense.New[float32](m, n)
	}
	scales, ok := load(w, a, !opts.DisableScaling)
	if !ok {
		return nil, &InputError{CheckInput(a)}
	}
	r, err := opts.recurse(w)
	if err != nil {
		return nil, err
	}
	// A·P = Q·(R·P) was factored; recover R for A by unscaling the columns
	// of R. Powers of two make this exact (and positive, so the panel's sign
	// convention on the diagonal survives).
	for j, s := range scales {
		if s != 1 {
			blas.Scal(1/s, r.Col(j)[:j+1])
		}
	}
	res := &Result{Q: w, R: r, ColumnScales: scales}
	if !opts.ReOrthogonalize {
		return res, nil
	}

	// "Twice is enough": factor Q = Q₂·R₂ in place (scaling unnecessary: the
	// columns of Q are already within a rounding error of unit norm), then
	// R ← R₂·R. R₂ is within rounding of the identity, so this triangular
	// product barely perturbs R; run it in FP32 (the paper keeps safeguard
	// arithmetic out of the half-precision unit).
	r2, err := opts.recurse(w)
	if err != nil {
		return nil, err
	}
	newR := dense.New[float32](n, n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, r2, r, 0, newR)
	// Both factors store hard zeros below the diagonal, so the strict lower
	// triangle of the product is exactly zero unless a factor is non-finite
	// (0·Inf): a cheap invariant check in disguise.
	for j := 0; j < n; j++ {
		col := newR.Col(j)
		for i := j + 1; i < n; i++ {
			if col[i] != 0 {
				return nil, fmt.Errorf("rgs: re-orthogonalization broke triangularity at (%d,%d): %w", i, j, hazard.ErrBreakdown)
			}
		}
	}
	res.R, res.Reorthogonalized = newR, true
	return res, nil
}

// recurse runs Algorithm 1 in place on w — Q overwrites it — and returns R
// (upper triangular, hard zeros below the diagonal), the panel factorizer
// taking over at the cutoff width.
func (o *Options) recurse(w *dense.M32) (*dense.M32, error) {
	panel := o.panel()
	r := dense.New[float32](w.Cols, w.Cols)
	err := gram.Recurse(w, r, o.cutoff(), o.engine(), func(w, r *dense.M32) error {
		return gram.FactorInto(panel, w, r)
	})
	return r, err
}

// InputError is Factor's answer to an input no configuration can factor: an
// element that is not finite in float32. Err is CheckInput's error, naming
// the first offender.
type InputError struct{ Err error }

func (e *InputError) Error() string { return "rgs: " + e.Err.Error() }
func (e *InputError) Unwrap() error { return e.Err }

// CheckInput spells out the check Factor's sweep makes, for an error message
// and for callers that must reject an input before its shape: a must be
// non-empty, and finite once narrowed to float32. The error wraps
// hazard.ErrEmpty or hazard.ErrNonFinite and names the first NaN or Inf of a
// at its own width in column-major order, or else, for a float64 a, the first
// element beyond the float32 range (as +Inf or -Inf, its float32 value).
func CheckInput[T dense.Float](a *dense.Matrix[T]) error {
	if err := hazard.CheckMatrix("A", a); err != nil {
		return err
	}
	if a64, ok := any(a).(*dense.M64); ok {
		return hazard.CheckMatrix("A", dense.ToF32(a64))
	}
	return nil
}

// load is Factor's sweep over its input, one column at a time while the
// column is in cache: a float32 column is read where it is, a float64 one is
// narrowed into w first; the column is checked, and written to w once, scaled
// by columnScale's power of two when scale is set. It returns the applied
// scales (nil without scaling), and false when a column holds an element that
// is not finite in float32. The columns are independent, so they are swept in
// chunks on the blas task runner (sweepJob); which column an error names is
// CheckInput's to find.
func load[T dense.Float](w *dense.M32, a *dense.Matrix[T], scale bool) ([]float32, bool) {
	var scales []float32
	if scale {
		scales = make([]float32, a.Cols)
	}
	job := sweepJobs.Get()
	job.w, job.scales = *w, scales
	switch a := any(a).(type) {
	case *dense.M32:
		job.a32, job.kind = *a, sweepLoad32
	case *dense.M64:
		job.a64, job.kind = *a, sweepLoad64
	}
	return scales, job.run()
}

// loadCols is load's sweep over columns [lo, hi); false at the first column
// that is not finite in float32.
func loadCols[T dense.Float](w *dense.M32, a *dense.Matrix[T], scales []float32, lo, hi int) bool {
	for j := lo; j < hi; j++ {
		dst := w.Col(j)
		src, ok := any(a.Col(j)).([]float32)
		if !ok {
			for i, v := range a.Col(j) {
				dst[i] = float32(v)
			}
			src = dst
		}
		if hazard.CheckVec("A", src) != nil {
			return false
		}
		s := float32(1)
		if scales != nil {
			s = columnScale(src)
			scales[j] = s
		}
		if s != 1 || ok {
			blas.ScalTo(s, src, dst) // by 1, a copy: every element is finite
		}
	}
	return true
}

// Finite reports whether every element of q is finite, as
// hazard.MatrixFinite does, scanning its columns in chunks on the blas task
// runner: the check tcqr.Factorize makes of every Q it computes.
func Finite(q *dense.M32) bool {
	job := sweepJobs.Get()
	job.w, job.kind = *q, sweepFinite
	return job.run()
}

// A sweep of fewer than sweepSplitMin elements runs on the caller alone,
// where waking a helper would cost about as much as the sweep; a larger one
// is split into sweepChunks column chunks, enough that a helper which starts
// late still takes a share.
const sweepSplitMin, sweepChunks = 1 << 15, 8

type sweepKind int

const (
	sweepLoad32 sweepKind = iota // load from a32
	sweepLoad64                  // load from a64
	sweepFinite                  // Finite(w)
)

// sweepJob is one load or Finite call on the blas task runner: task t sweeps
// columns [t·chunk, t·chunk+chunk) of w and sets bad if one is not finite.
// The matrices are held by value, as blas's Gemv job holds its A: keeping the
// caller's pointer would make it escape.
type sweepJob struct {
	kind   sweepKind
	w, a32 dense.M32
	a64    dense.M64
	scales []float32
	chunk  int
	bad    atomic.Bool
}

var sweepJobs blas.FreeList[sweepJob]

// run sweeps j's columns, recycles j, and reports whether every column
// passed. Each column gets the same loop whichever task takes it, so neither
// the bits nor the answer depend on the chunking.
func (j *sweepJob) run() bool {
	n, tasks := j.w.Cols, 1
	if j.w.Rows*n >= sweepSplitMin {
		tasks = min(n, sweepChunks)
	}
	j.chunk = (n + tasks - 1) / tasks
	j.bad.Store(false)
	blas.ParallelTasks((n+j.chunk-1)/j.chunk, j)
	ok := !j.bad.Load()
	j.w, j.a32, j.a64, j.scales = dense.M32{}, dense.M32{}, dense.M64{}, nil
	sweepJobs.Put(j)
	return ok
}

func (j *sweepJob) RunTask(_, t int) {
	lo := t * j.chunk
	hi := min(lo+j.chunk, j.w.Cols)
	var ok bool
	switch j.kind {
	case sweepLoad32:
		ok = loadCols(&j.w, &j.a32, j.scales, lo, hi)
	case sweepLoad64:
		ok = loadCols(&j.w, &j.a64, j.scales, lo, hi)
	default:
		var cols dense.M32
		cols.SetView(&j.w, 0, lo, j.w.Rows, hi-lo)
		ok = hazard.MatrixFinite(&cols)
	}
	if !ok {
		j.bad.Store(true)
	}
}

// columnScale returns the power of two that brings the largest magnitude of
// col into [1, 2) (or, for a column below 2⁻¹²⁷, as near as a finite float32
// scale takes it) — comfortably inside the binary16 range regardless of the
// later orthogonal transformations (which preserve column 2-norms; with max
// element < 2 the column norm is at most 2√m, and 2√m ≪ 65504 for every m
// this library targets). The scale multiplies the float32 elements, after
// their narrowing: scaling a float64 before it is narrowed would round a
// float32 subnormal differently.
func columnScale(col []float32) float32 {
	mx := blas.Amax(col) // NaN is skipped; an Inf keeps the column as it is
	if mx == 0 || math.IsInf(float64(mx), 0) {
		return 1
	}
	// mx·s in [1, 2), except below 2⁻¹²⁷, where s stops at 2¹²⁷ (the largest
	// finite float32 power of two) and mx·s stays below 1.
	e := math.Floor(math.Log2(float64(mx)))
	return float32(math.Exp2(min(-e, 127)))
}

// FlopCount returns the floating point operations RGSQRF performs on an
// m×n matrix, ~2mn² by the recurrence (5) of the paper (panel flops
// included at 2·m·B² per panel). Used by the benchmarks to report
// normalized rates.
func FlopCount(m, n, cutoff int) int64 {
	if cutoff <= 0 {
		cutoff = DefaultCutoff
	}
	if n <= cutoff {
		return 2 * int64(m) * int64(n) * int64(n)
	}
	h := n / 2
	// Two GEMMs of h×(n-h)×m each: R12 and the update.
	gemms := 2 * (2 * int64(m) * int64(h) * int64(n-h))
	return FlopCount(m, h, cutoff) + FlopCount(m, n-h, cutoff) + gemms
}
