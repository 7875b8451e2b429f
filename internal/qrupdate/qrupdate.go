// Package qrupdate holds the R kernels of incremental QR, float64 on the
// widened float32 R at O(k·n²) for k rows: the Householder annihilation that
// appends rows and the LINPACK dchdd sweep that removes them. The daemon runs
// only these; the root package's updates add the Q half.
package qrupdate

import (
	"errors"
	"fmt"
	"math"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/hazard"
)

// Append annihilates the k×n block v under the n×n upper-triangular r and
// returns R′ of [A; V] in float64 with a non-negative diagonal, and what a
// Q update needs: reflector j is I − tau[j]·u·uᵀ with u = [e_j; z.Col(j)],
// and flip[j] says row j of R′ was negated. The inputs are not modified.
func Append(r, v *dense.Matrix[float32]) (rd, z *dense.Matrix[float64], tau []float64, flip []bool) {
	n, k := r.Cols, v.Rows
	rd = dense.ToF64(r) // becomes R′
	z = dense.New[float64](k, n)
	tau = make([]float64, n)
	flip = make([]bool, n)
	appendIn(rd, dense.ToF64(v), z, tau, flip)
	return rd, z, tau, flip
}

// appendIn is Append in the caller's storage: rd holds R and becomes R′, w
// holds V and is annihilated in place. z.Col(j) and tau[j] are written before
// they are read, and left as they were for a column already annihilated;
// flip, when not nil, records the rows negated.
func appendIn(rd, w, z *dense.Matrix[float64], tau []float64, flip []bool) {
	n := rd.Cols
	// Reflector j touches only row j of R and the k appended rows: rows
	// j+1..n−1 of column j are already zero.
	for j := 0; j < n; j++ {
		wj := w.Col(j)
		sigma := blas.Dot(wj, wj)
		if sigma == 0 {
			continue // column already annihilated; H_j = I
		}
		alpha := rd.At(j, j)
		mu := math.Sqrt(float64(alpha*alpha) + sigma)
		beta := -mu
		if alpha < 0 {
			beta = mu
		}
		v0 := alpha - beta
		tau[j] = (beta - alpha) / beta
		zj := z.Col(j)
		for i, x := range wj {
			zj[i] = x / v0
		}
		rd.Set(j, j, beta)
		for jj := j + 1; jj < n; jj++ {
			wc := w.Col(jj)
			t := float64(tau[j] * (rd.At(j, jj) + blas.Dot(zj, wc)))
			rd.Set(j, jj, rd.At(j, jj)-t)
			blas.Axpy(-t, zj, wc)
		}
	}

	// Canonicalize R′ to a non-negative diagonal (the TSQR convention).
	for j := 0; j < n; j++ {
		if rd.At(j, j) < 0 {
			if flip != nil {
				flip[j] = true
			}
			for jj := j; jj < n; jj++ {
				rd.Set(j, jj, -rd.At(j, jj))
			}
		}
	}
}

// AppendR is Append's R′, narrowed; it fails only past the float32 range.
// Its float64 working copies come from blas's scratch pool, as FactorizeR's
// workspace comes from a pool, so the float32 R′ is all a warm call keeps.
func AppendR(r, v *dense.Matrix[float32]) (*dense.Matrix[float32], error) {
	n, k := r.Cols, v.Rows
	work := blas.GetScratch(n*n + 2*k*n + n)
	defer blas.PutScratch(work)
	ws := *work
	rd := widenInto(r, ws[:n*n])
	w := widenInto(v, ws[n*n:n*n+k*n])
	z := dense.NewFromColMajor(k, n, ws[n*n+k*n:n*n+2*k*n])
	appendIn(rd, w, z, ws[n*n+2*k*n:], nil)
	return narrow(rd, nil)
}

// widenInto widens m into buf, which it must fit, as a tight matrix.
func widenInto(m *dense.Matrix[float32], buf []float64) *dense.Matrix[float64] {
	out := dense.NewFromColMajor(m.Rows, m.Cols, buf)
	for j := 0; j < m.Cols; j++ {
		dst := out.Col(j)
		for i, x := range m.Col(j) {
			dst[i] = float64(x)
		}
	}
	return out
}

// Downdate removes rows (k×n, in the unscaled A's coordinates) from the
// upper-triangular rd in place, one dchdd sweep per row b: R′ᵀR′ = RᵀR − bᵀb.
// It solves Rᵀa = b, fails with hazard.ErrBreakdown when α² = 1 − ‖a‖² is
// at the float32 noise floor (the removed rows carry all the remaining column
// mass), then maps [R; 0] to [R′; *] by Givens rotations, diagonal ≥ 0.
func Downdate(rd, rows *dense.Matrix[float64]) error {
	n := rd.Cols
	return downdateIn(rd, rows, make([]float64, n), make([]float64, n), make([]float64, n))
}

// downdateIn is Downdate in the caller's working n-vectors s, cs and sn.
func downdateIn(rd, rows *dense.Matrix[float64], s, cs, sn []float64) error {
	n := rd.Cols
	for i := 0; i < rows.Rows; i++ {
		for j := 0; j < n; j++ {
			s[j] = rows.At(i, j)
		}
		// Solve Rᵀa = b for the current (already downdated) R.
		blas.Trsv(blas.Upper, blas.Trans, blas.NonUnit, rd, s)
		norm2 := blas.Dot(s, s)
		// An α² inside the float32 factors' O(2⁻²⁴) noise floor cannot be
		// told from zero, and its rotations would be garbage. !(…) catches NaN.
		if !(1-norm2 > 32.0/(1<<24)) {
			return fmt.Errorf("downdate breakdown at removed row %d (‖a‖² = %g): %w",
				i, norm2, hazard.ErrBreakdown)
		}
		alpha := math.Sqrt(1 - norm2)
		for ii := n - 1; ii >= 0; ii-- {
			sc := alpha + math.Abs(s[ii])
			a, x := alpha/sc, s[ii]/sc
			nrm := math.Sqrt(float64(a*a) + float64(x*x))
			cs[ii] = a / nrm
			sn[ii] = x / nrm
			alpha = sc * nrm
		}
		for j := 0; j < n; j++ {
			col := rd.Col(j)
			xx := 0.0
			for ii := j; ii >= 0; ii-- {
				t := float64(cs[ii]*xx) + float64(sn[ii]*col[ii])
				col[ii] = float64(cs[ii]*col[ii]) - float64(sn[ii]*xx)
				xx = t
			}
		}
	}
	// Reject a singular diagonal, which a triangular solve would divide by,
	// and canonicalize the diagonal by row sign flips.
	for i := 0; i < n; i++ {
		if rd.At(i, i) == 0 {
			return fmt.Errorf("downdated R is singular at column %d: %w", i, hazard.ErrBreakdown)
		}
		if rd.At(i, i) < 0 {
			for j := i; j < n; j++ {
				rd.Set(i, j, -rd.At(i, j))
			}
		}
	}
	return nil
}

// DowndateR is Downdate on the widenings of r and rows, narrowed. Its
// working copies come from the scratch pool, as AppendR's do.
func DowndateR(r, rows *dense.Matrix[float32]) (*dense.Matrix[float32], error) {
	n, k := r.Cols, rows.Rows
	work := blas.GetScratch(n*n + k*n + 3*n)
	defer blas.PutScratch(work)
	ws := *work
	rd := widenInto(r, ws[:n*n])
	s := ws[n*n+k*n:]
	return narrow(rd, downdateIn(rd, widenInto(rows, ws[n*n:n*n+k*n]), s[:n], s[n:2*n], s[2*n:3*n]))
}

func narrow(rd *dense.Matrix[float64], err error) (*dense.Matrix[float32], error) {
	if err != nil {
		return nil, err
	}
	if r := dense.ToF32(rd); hazard.MatrixFinite(r) {
		return r, nil
	}
	return nil, fmt.Errorf("updated R is non-finite: %w", hazard.ErrNonFinite)
}

// FallbackEvent is the event that opens the Hazards of a downdate that
// failed with err and was recovered by refactorizing the remaining rows.
func FallbackEvent(err error) hazard.Event {
	kind := hazard.KindNonFinite
	if errors.Is(err, hazard.ErrBreakdown) {
		kind = hazard.KindBreakdown
	}
	return hazard.Event{Kind: kind, Stage: "downdate", Detail: err.Error(),
		Action: "refactorize remaining rows from scratch"}
}
