package tcqr

import (
	"fmt"
	"math"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/hazard"
)

// This file implements incremental QR: appending rows to an existing
// factorization (update) and removing trailing rows (downdate) without the
// full O(mn²) refactorization — the "online least squares" workload from
// ROADMAP item 5.
//
// Append: with A = Q·R and a new row block V (k×n),
//
//	[A]   [Q 0] [R]          [R]
//	[V] = [0 I]·[V]   and    [V] = Q̂·R′  (structured Householder),
//
// so [A;V] = ([Q 0;0 I]·Q̂)·R′ = [Q·Q̂₁; Q̂₂]·R′. Each Householder
// reflector for column j only touches row j of R and the k appended rows
// (everything below the diagonal of the R block is already zero), so
// annihilating V costs O(kn²) instead of O((m+k)n²), and the explicit-Q
// contract is met by applying the same structured reflectors to [Q 0; 0 I]
// in compact-WY blocks at O(m·n·k) — never forming Q̂, whose dense product
// with Q would cost the same O(m·n²) as refactorizing. All interior
// arithmetic runs in float64 and narrows to the device precision at the end,
// so the update rung sits inside the mixed-precision error budget of the
// serial factorization (Yang/Fox/Sanders bound the blocked Householder rung).
//
// Downdate: LINPACK dchdd-style. Removing row b from A downdates the
// Cholesky view R′ᵀR′ = RᵀR − bᵀb: solve Rᵀa = b, α² = 1 − ‖a‖² (breakdown
// when ≤ 0 — the removed rows carry all the remaining column mass), then a
// backward sweep of Givens rotations maps [R; 0] to [R′; *]. Q is recovered
// as Q′ = A′·R′⁻¹ = Q₁·(R·R′⁻¹) via a triangular solve plus one GEMM.

// UpdateAppendRows returns the factorization of [A; V] given f = Q·R of A
// and a new row block v (k×n, n = f.R.Cols). The inputs are not modified;
// the result is a fresh Factorization (its Q and R share no storage with f).
//
// Hazards follow cfg.OnHazard exactly like Factorize: under HazardFail a
// non-finite update returns an error wrapping ErrNonFinite; under
// HazardFallback the ladder retries with power-of-two column scaling of the
// bordered block, then falls back to a full refactorization of the
// reconstructed [Q·R; V], recording every rung in Factorization.Hazards.
//
// The result carries nil ColumnScales (R′ is expressed for the unscaled
// rows, matching the Factorize contract) and zero EngineStats: the update
// runs in float64 off the simulated engine.
func UpdateAppendRows(f *Factorization, v *Matrix32, cfg Config) (*Factorization, error) {
	if err := checkUpdateInputs(f, v); err != nil {
		return nil, err
	}
	return recoverUpdate(cfg, "update",
		func() (*Factorization, error) { return appendOnce(f, v, false) },
		func(error) []attempt {
			return []attempt{
				{"retry update with column scaling", func() (*Factorization, error) {
					return appendOnce(f, v, true)
				}},
				{"refactorize appended matrix from scratch", func() (*Factorization, error) {
					return Factorize(stackRows(reconstructRows(f, f.Q.Rows), v), cfg)
				}},
			}
		})
}

// UpdateRemoveRows returns the factorization of A with its trailing k rows
// removed, given f = Q·R of A. The inputs are not modified.
//
// A downdate is numerically harder than an update: when the removed rows
// carry essentially all of a column's mass, α² = 1 − ‖a‖² is non-positive
// and the downdate breaks down. Under HazardFail that returns an error
// wrapping ErrBreakdown; under HazardFallback the remaining matrix is
// reconstructed as Q₁·R and refactorized from scratch, with the recovery
// recorded in Factorization.Hazards.
func UpdateRemoveRows(f *Factorization, k int, cfg Config) (*Factorization, error) {
	if f == nil || f.Q == nil || f.R == nil {
		return nil, fmt.Errorf("tcqr: downdate of a nil factorization: %w", ErrEmpty)
	}
	m, n := f.Q.Rows, f.Q.Cols
	if k <= 0 {
		return nil, fmt.Errorf("tcqr: downdate of %d rows: %w", k, ErrShape)
	}
	if m-k < n {
		return nil, fmt.Errorf("tcqr: removing %d of %d rows leaves fewer rows than the %d columns: %w",
			k, m, n, ErrShape)
	}
	return recoverUpdate(cfg, "downdate",
		func() (*Factorization, error) { return downdateOnce(f, k) },
		func(error) []attempt {
			return []attempt{
				{"refactorize remaining rows from scratch", func() (*Factorization, error) {
					return Factorize(reconstructRows(f, m-k), cfg)
				}},
			}
		})
}

// recoverUpdate runs an update or downdate down its recovery ladder (built
// only once first has failed). The result's Hazards are the ladder's own
// events followed by those of the rung that produced it (a refactorize rung
// brings the full factorization ladder's).
func recoverUpdate(cfg Config, stage string, first func() (*Factorization, error),
	ladder func(error) []attempt) (*Factorization, error) {
	rep := &hazard.Report{}
	nf, err := withFallback(cfg.OnHazard, stage, rep, first, ladder)
	if err != nil {
		return nil, err
	}
	nf.Hazards = append(rep.Events(), nf.Hazards...)
	return nf, nil
}

// checkUpdateInputs validates the append inputs with the standard typed
// errors.
func checkUpdateInputs(f *Factorization, v *Matrix32) error {
	if f == nil || f.Q == nil || f.R == nil {
		return fmt.Errorf("tcqr: update of a nil factorization: %w", ErrEmpty)
	}
	if err := hazard.CheckMatrix("V", v); err != nil {
		return fmt.Errorf("tcqr: %w", err)
	}
	if v.Cols != f.R.Cols {
		return fmt.Errorf("tcqr: appended block is %dx%d; factorization has %d columns: %w",
			v.Rows, v.Cols, f.R.Cols, ErrShape)
	}
	return nil
}

// appendOnce runs one rung of the append ladder: the structured bordered
// Householder in float64, optionally on a power-of-two column-scaled copy of
// the bordered block (exactly undone on R′ afterwards — scaling never
// changes the represented matrix, only the conditioning of intermediates).
func appendOnce(f *Factorization, v *Matrix32, scale bool) (*Factorization, error) {
	n := f.R.Cols
	k := v.Rows
	rd := dense.ToF64(f.R) // becomes R′
	w := dense.ToF64(v)    // appended block, annihilated in place
	var scales []float64
	if scale {
		scales = scaleBordered(rd, w)
	}

	// Annihilate W column by column. Reflector j is H = I − τ·u·uᵀ with
	// u = [e_j; z_j]: it touches only row j of the R block plus the k
	// appended rows, because rows j+1..n−1 of column j are already zero.
	z := dense.New[float64](k, n)
	tau := make([]float64, n)
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
	if scales != nil {
		unscaleR(rd, scales)
	}

	// Canonicalize R′ to a non-negative diagonal (the TSQR convention) now —
	// the annihilation is complete, so the sign of each Q′ column is known
	// before the Q update runs and can be folded into the narrowing below.
	flip := make([]bool, n)
	for j := 0; j < n; j++ {
		if rd.At(j, j) < 0 {
			flip[j] = true
			for jj := j; jj < n; jj++ {
				rd.Set(j, jj, -rd.At(j, jj))
			}
		}
	}

	// Q′ = [Q 0; 0 I_k]·H_0⋯H_{n−1}, restricted to the first n columns.
	// Forming Q̂ = H_0⋯H_{n−1}·[I_n; 0] and multiplying would cost an
	// O(m·n²) GEMM — the same order as refactorizing, which is why the
	// explicit product was the whole update's bottleneck. Instead apply the
	// reflectors in compact-WY blocks: u_j = [e_j; z_j] is zero outside
	// position j and the k appended coordinates, so a block of nb reflectors
	// is I − U·T·Uᵀ with U = [E_blk; Z_blk]. Right-multiplying touches only
	// the block's own Q columns (read and written exactly once, as
	// P = [Q_blk; 0]·T + B·(Z_blk·T) and Q′_blk = [Q_blk; 0] − P) plus the
	// k-column tail block B — the only live state across blocks. Every
	// product has inner dimension k or nb, so the whole Q update is
	// O((m+k)·n·(k+nb)). The reflector generation above stays float64; this
	// application runs in float32 — the accumulation depth per element is
	// only k+nb, so its rounding sits well inside the float32 factor
	// quality, and it halves memory traffic while doubling SIMD width.
	m := f.Q.Rows
	z32 := dense.New[float32](k, n)
	for j := 0; j < n; j++ {
		c32 := z32.Col(j)
		for i, v := range z.Col(j) {
			c32[i] = float32(v)
		}
	}
	nb := 16
	if nb > n {
		nb = n
	}
	// ub = [B | Q_blk]: the persistent tail block B (starts as [0; I_k],
	// updated in place through its column view) shares one GEMM operand with
	// the block's Q columns (refilled each block, bottom k rows permanently
	// zero), so P = B·(Z_blk·T) + [Q_blk; 0]·T is a single product against
	// rb = [Z_blk·T; T] instead of two. B leads so the operand view stays
	// contiguous when the last block is narrower than nb.
	ub := dense.New[float32](m+k, k+nb)
	bt := ub.View(0, 0, m+k, k)
	for c := 0; c < k; c++ {
		bt.Col(c)[m+c] = 1
	}
	tb := dense.New[float64](nb, nb)
	rb := dense.New[float32](k+nb, nb)
	py := dense.New[float32](m+k, nb)
	s := make([]float64, nb)
	nq := dense.New[float32](m+k, n)
	qFinite := true
	for j0 := 0; j0 < n; j0 += nb {
		j1 := j0 + nb
		if j1 > n {
			j1 = n
		}
		cb := j1 - j0
		// T for H_{j0}⋯H_{j1−1} (forward columnwise larft): T[b][b] = τ_b,
		// T[0:b, b] = T[0:b, 0:b]·(−τ_b·Z_prevᵀ·z_b) — the e_j parts of the
		// u's are orthonormal, so cross terms reduce to Z dots.
		for b := 0; b < cb; b++ {
			zb := z.Col(j0 + b)
			for a := 0; a < b; a++ {
				s[a] = -tau[j0+b] * blas.Dot(z.Col(j0+a), zb)
			}
			for a := 0; a < b; a++ {
				acc := 0.0
				for l := a; l < b; l++ {
					acc += float64(tb.At(a, l) * s[l])
				}
				tb.Set(a, b, acc)
			}
			tb.Set(b, b, tau[j0+b])
			for a := 0; a <= b; a++ {
				rb.Set(k+a, b, float32(tb.At(a, b)))
			}
			for a := b + 1; a < cb; a++ {
				rb.Set(k+a, b, 0)
			}
		}
		zv := z32.View(0, j0, k, cb)
		ztv := rb.View(0, 0, k, cb)
		blas.Gemm(blas.NoTrans, blas.NoTrans, 1, zv, rb.View(k, 0, cb, cb), 0, ztv)
		qv := ub.View(0, k, m+k, cb)
		for c := 0; c < cb; c++ {
			copy(qv.Col(c), f.Q.Col(j0+c))
		}
		pv := py.View(0, 0, m+k, cb)
		blas.Gemm(blas.NoTrans, blas.NoTrans, 1, ub.View(0, 0, m+k, k+cb), rb.View(0, 0, k+cb, cb), 0, pv)
		// Column j0+c of Q′ is final: [Q_blk; 0] − P, narrowed with its
		// canonicalization sign. The finite check rides along while the
		// column is cache-hot (v − v is 0 for finite v, NaN otherwise)
		// instead of re-scanning Q′ cold afterwards. Then B ← B − P·Z_blkᵀ
		// for the next block (B is dead after the last one).
		for c := 0; c < cb; c++ {
			qc, pc, col := qv.Col(c), pv.Col(c), nq.Col(j0+c)
			var bad float32
			if flip[j0+c] {
				for i := range col {
					v := pc[i] - qc[i]
					col[i] = v
					bad += v - v
				}
			} else {
				for i := range col {
					v := qc[i] - pc[i]
					col[i] = v
					bad += v - v
				}
			}
			if bad != 0 {
				qFinite = false
			}
		}
		if j1 < n {
			blas.Gemm(blas.NoTrans, blas.Trans, -1, pv, zv, 1, bt)
		}
	}
	nf := &Factorization{Q: nq, R: dense.ToF32(rd)}
	if !qFinite || !hazard.MatrixFinite(nf.R) {
		return nil, fmt.Errorf("tcqr: updated factors are non-finite: %w", ErrNonFinite)
	}
	return nf, nil
}

// scaleBordered scales column j of both bordered blocks by a power of two
// chosen from the column's max magnitude, returning the scales applied.
func scaleBordered(r, w *dense.Matrix[float64]) []float64 {
	n := r.Cols
	scales := make([]float64, n)
	for j := 0; j < n; j++ {
		max := 0.0
		for _, x := range r.Col(j)[:j+1] {
			if a := math.Abs(x); a > max {
				max = a
			}
		}
		for _, x := range w.Col(j) {
			if a := math.Abs(x); a > max {
				max = a
			}
		}
		s := 1.0
		if max > 0 && !math.IsInf(max, 0) {
			_, exp := math.Frexp(max)
			s = math.Ldexp(1, -exp) // power of two: scaling is exact
		}
		scales[j] = s
		if s != 1 {
			blas.Scal(s, r.Col(j)[:j+1])
			blas.Scal(s, w.Col(j))
		}
	}
	return scales
}

// unscaleR undoes scaleBordered on the updated R′ (exact: powers of two).
func unscaleR(r *dense.Matrix[float64], scales []float64) {
	for j, s := range scales {
		if s != 1 {
			blas.Scal(1/s, r.Col(j)[:j+1])
		}
	}
}

// downdateBreakdownTol is the α² floor below which a downdate is declared
// broken down: the float32 factors carry O(2⁻²⁴) relative error, so a
// residual mass within a small multiple of that is indistinguishable from
// zero.
const downdateBreakdownTol = 32.0 / (1 << 24)

// downdateStripRows is about how many rows of Q₁ the downdate widens and
// multiplies at a time: two float64 strips of 256 rows by n columns (a
// widened Q₁ strip and its product) take 512 KB at n = 128, a quarter of one
// float64 copy of a 2048-row Q₁, and at 256 rows a strip is still two of the
// packed GEMM's 128-row macro-tiles deep, one for each of two workers.
const downdateStripRows = 256

// downdateOnce removes the trailing k rows with k successive dchdd sweeps
// and recovers Q′ = Q₁·(R·R′⁻¹).
func downdateOnce(f *Factorization, k int) (*Factorization, error) {
	m, n := f.Q.Rows, f.Q.Cols
	r0 := dense.ToF64(f.R) // pristine R for the Q recovery solve
	rd := r0.Clone()       // downdated in place to R′

	// The removed rows in the coordinates of the unscaled A: B = Q₂·R. Only
	// these k rows of Q are widened whole; Q₁ is widened a strip at a time
	// below.
	q2 := dense.ToF64(f.Q.View(m-k, 0, k, n))
	b := dense.New[float64](k, n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, q2, r0, 0, b)

	s := make([]float64, n)
	cs := make([]float64, n)
	sn := make([]float64, n)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			s[j] = b.At(i, j)
		}
		// Solve Rᵀa = b for the current (already downdated) R.
		blas.Trsv(blas.Upper, blas.Trans, blas.NonUnit, rd, s)
		norm2 := blas.Dot(s, s)
		// Breakdown when α² = 1 − ‖a‖² is non-positive — or merely inside
		// the noise floor of the float32 factors (O(2⁻²⁴) relative error):
		// an α² that small cannot be distinguished from zero, and the
		// rotations it generates would be garbage. !(… > tol) also catches
		// NaN.
		if !(1-norm2 > downdateBreakdownTol) {
			return nil, fmt.Errorf("tcqr: downdate breakdown at removed row %d (‖a‖² = %g): %w",
				i, norm2, ErrBreakdown)
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
	// Canonicalize R′ to a non-negative diagonal (row sign flips — absorbed
	// by the Q recovery below) and reject a singular diagonal before the
	// triangular solve divides by it.
	for j := 0; j < n; j++ {
		if rd.At(j, j) == 0 {
			return nil, fmt.Errorf("tcqr: downdated R is singular at column %d: %w", j, ErrBreakdown)
		}
	}
	for i := 0; i < n; i++ {
		if rd.At(i, i) < 0 {
			for j := i; j < n; j++ {
				rd.Set(i, j, -rd.At(i, j))
			}
		}
	}

	// Q′ = Q₁·M with M·R′ = R.
	msolve := r0 // overwritten by Trsm
	blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, rd, msolve)
	nf := &Factorization{Q: dense.New[float32](m-k, n), R: dense.ToF32(rd)}
	if !recoverQStrips(nf.Q, f.Q, msolve) || !hazard.MatrixFinite(nf.R) {
		return nil, fmt.Errorf("tcqr: downdated factors are non-finite: %w", ErrNonFinite)
	}
	return nf, nil
}

// recoverQStrips writes Q′ = Q₁·M, Q₁ the leading qn.Rows rows of q, into
// the float32 qn, reporting whether every element is finite. It runs the
// product in balanced row strips of about downdateStripRows rows: each strip
// of Q₁ is widened into the first half of one two-strip float64 workspace,
// multiplied into the second half and narrowed straight into Q′, with the
// finite check riding along (x − x is 0 for finite x, NaN otherwise). The
// widening is exact and the packed GEMM gives a row the same bits whichever
// strip it is in, so Q′ is the whole product's, bit for bit — provided every
// strip takes the packed kernel the whole product takes; where a strip would
// not, the product runs as one strip.
func recoverQStrips(qn, q *Matrix32, msolve *dense.Matrix[float64]) bool {
	rows, n := qn.Rows, qn.Cols
	h := rows
	if ns := (rows + downdateStripRows - 1) / downdateStripRows; ns > 1 {
		h = (rows + ns - 1) / ns
		if last := rows - (ns-1)*h; !blas.GemmPacked(last, n, n) {
			h = rows
		}
	}
	ws := make([]float64, 2*h*n)
	in := &dense.Matrix[float64]{Cols: n, Stride: h, Data: ws[:h*n]}
	out := &dense.Matrix[float64]{Cols: n, Stride: h, Data: ws[h*n:]}
	var bad float32
	for i0 := 0; i0 < rows; i0 += h {
		hh := min(h, rows-i0)
		in.Rows, out.Rows = hh, hh
		for j := 0; j < n; j++ {
			dst := in.Col(j)
			for i, x := range q.Col(j)[i0 : i0+hh] {
				dst[i] = float64(x)
			}
		}
		blas.Gemm(blas.NoTrans, blas.NoTrans, 1, in, msolve, 0, out)
		for j := 0; j < n; j++ {
			dst := qn.Col(j)[i0 : i0+hh]
			for i, x := range out.Col(j) {
				v := float32(x)
				dst[i] = v
				bad += v - v
			}
		}
	}
	return bad == 0
}

// stackRows returns [a; v] in a fresh matrix.
func stackRows(a, v *Matrix32) *Matrix32 {
	m, n := a.Rows, a.Cols
	full := dense.New[float32](m+v.Rows, n)
	for j := 0; j < n; j++ {
		col := full.Col(j)
		copy(col, a.Col(j))
		copy(col[m:], v.Col(j))
	}
	return full
}

// reconstructRows rebuilds the leading rows of A = Q·R in float32 via a
// float64 GEMM: what the refactorize rungs factor from scratch.
func reconstructRows(f *Factorization, rows int) *Matrix32 {
	n := f.Q.Cols
	qd := dense.ToF64(f.Q).View(0, 0, rows, n)
	rd := dense.ToF64(f.R)
	ad := dense.New[float64](rows, n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, qd, rd, 0, ad)
	return dense.ToF32(ad)
}
