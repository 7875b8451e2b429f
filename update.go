package tcqr

import (
	"fmt"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/qrupdate"
)

// This file implements incremental QR with an explicit Q: appending rows
// (update) and removing trailing rows (downdate) without the O(mn²)
// refactorization. Each runs internal/qrupdate's R kernel — all the daemon
// runs, since its factor is A and R — and adds the Q half, which goes with
// recoverQStrips once no caller reads an updated Q.
//
// Append: [A; V] = [Q 0; 0 I]·[R; V] and [R; V] = Q̂·R′ (qrupdate.Append,
// structured Householder at O(kn²) in float64). Q′ applies the same
// reflectors to [Q 0; 0 I] in compact-WY blocks at O(m·n·k), never forming
// Q̂, whose dense product with Q would cost as much as refactorizing. Both
// narrow to float32 at the end, inside the serial factorization's
// mixed-precision error budget (Yang/Fox/Sanders). Off the fp16 engine
// there is nothing for column scaling to repair, so an append has no
// recovery ladder.
//
// Downdate: qrupdate.Downdate's dchdd sweep over B = Q₂·R, then
// Q′ = Q₁·(R·R′⁻¹) by a triangular solve and one GEMM. A breakdown is
// recovered, under HazardFallback, by Factorize of the remaining rows: the
// library's one recovery ladder is Factorize's.

// UpdateAppendRows returns the factorization of [A; V] given f = Q·R of A
// and a new row block v (k×n, n = f.R.Cols). The inputs are not modified;
// the result is a fresh Factorization (its Q and R share no storage with f).
//
// An append has no recovery ladder, so cfg is not read and both hazard
// policies behave alike. The update runs in float64 off the simulated
// engine, where no fp16 range limit applies, so column scaling could only
// recompute the same bits; it fails only when a column of [A; V] has a norm
// past the float32 range, which no float32 R — refactorized or not — can
// hold. That failure is an error wrapping ErrNonFinite.
//
// The result carries nil ColumnScales (R′ is expressed for the unscaled
// rows, matching the Factorize contract), zero EngineStats and no Hazards.
func UpdateAppendRows(f *Factorization, v *Matrix32, cfg Config) (*Factorization, error) {
	if f == nil || f.Q == nil || f.R == nil {
		return nil, fmt.Errorf("tcqr: update of a nil factorization: %w", ErrEmpty)
	}
	if err := hazard.CheckMatrix("V", v); err != nil {
		return nil, fmt.Errorf("tcqr: %w", err)
	}
	if v.Cols != f.R.Cols {
		return nil, fmt.Errorf("tcqr: appended block is %dx%d; factorization has %d columns: %w",
			v.Rows, v.Cols, f.R.Cols, ErrShape)
	}
	return appendOnce(f, v)
}

// UpdateRemoveRows returns the factorization of A with its trailing k rows
// removed, given f = Q·R of A. The inputs are not modified.
//
// A downdate is numerically harder than an update: when the removed rows
// carry essentially all of a column's mass, α² = 1 − ‖a‖² is non-positive
// and the downdate breaks down. Under HazardFail that returns an error
// wrapping ErrBreakdown; under HazardFallback the remaining matrix is
// reconstructed as Q₁·R and refactorized by Factorize under cfg. Its
// Hazards open with one downdate event naming the breakdown, followed by
// the refactorization's own.
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
	nf, err := downdateOnce(f, k)
	if err == nil || cfg.OnHazard != HazardFallback {
		return nf, err
	}
	ev := qrupdate.FallbackEvent(err)
	if nf, err = Factorize(reconstructRows(f, m-k), cfg); err != nil {
		return nil, err
	}
	nf.Hazards = append([]Hazard{ev}, nf.Hazards...)
	return nf, nil
}

// appendOnce is the append: qrupdate's annihilation, then the Q half.
func appendOnce(f *Factorization, v *Matrix32) (*Factorization, error) {
	n := f.R.Cols
	k := v.Rows
	rd, z, tau, flip := qrupdate.Append(f.R, v)

	// Q′ = [Q 0; 0 I_k]·H_0⋯H_{n−1}, first n columns, in compact-WY blocks:
	// u_j = [e_j; z_j], so a block of nb reflectors is I − U·T·Uᵀ with
	// U = [E_blk; Z_blk]. Right-multiplying touches only the block's own Q
	// columns (P = [Q_blk; 0]·T + B·(Z_blk·T), Q′_blk = [Q_blk; 0] − P) and the
	// k-column tail block B, the only state across blocks: O((m+k)·n·(k+nb))
	// in all. It runs in float32, where each element's accumulation depth is
	// only k+nb.
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
	// ub = [B | Q_blk] (B starts as [0; I_k]; Q_blk's bottom k rows stay
	// zero), so P is one product with rb = [Z_blk·T; T]. B leads, so the view
	// stays contiguous when the last block is narrower than nb.
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
	// The per-block views, allocated once and re-pointed at each block.
	var zv, ztv, tv, qv, pv, uv, rv dense.Matrix[float32]
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
		zv.SetView(z32, 0, j0, k, cb)
		ztv.SetView(rb, 0, 0, k, cb)
		tv.SetView(rb, k, 0, cb, cb)
		blas.Gemm(blas.NoTrans, blas.NoTrans, 1, &zv, &tv, 0, &ztv)
		qv.SetView(ub, 0, k, m+k, cb)
		for c := 0; c < cb; c++ {
			copy(qv.Col(c), f.Q.Col(j0+c))
		}
		uv.SetView(ub, 0, 0, m+k, k+cb)
		rv.SetView(rb, 0, 0, k+cb, cb)
		pv.SetView(py, 0, 0, m+k, cb)
		blas.Gemm(blas.NoTrans, blas.NoTrans, 1, &uv, &rv, 0, &pv)
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
			blas.Gemm(blas.NoTrans, blas.Trans, -1, &pv, &zv, 1, bt)
		}
	}
	nf := &Factorization{Q: nq, R: dense.ToF32(rd)}
	if !qFinite || !hazard.MatrixFinite(nf.R) {
		return nil, fmt.Errorf("tcqr: updated factors are non-finite: %w", ErrNonFinite)
	}
	return nf, nil
}

// downdateStripRows is about how many rows of Q₁ the downdate widens and
// multiplies at a time: two float64 strips of 256 rows by n columns (a
// widened Q₁ strip and its product) take 512 KB at n = 128, a quarter of one
// float64 copy of a 2048-row Q₁, and at 256 rows a strip is still two of the
// packed GEMM's 128-row macro-tiles deep, one for each of two workers.
const downdateStripRows = 256

// downdateOnce removes the trailing k rows with qrupdate's dchdd sweeps over
// B = Q₂·R and recovers Q′ = Q₁·(R·R′⁻¹).
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
	if err := qrupdate.Downdate(rd, b); err != nil {
		return nil, fmt.Errorf("tcqr: %w", err)
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

// reconstructRows rebuilds the leading rows of A = Q·R in float32 via a
// float64 GEMM: what a downdate that breaks down refactorizes.
func reconstructRows(f *Factorization, rows int) *Matrix32 {
	n := f.Q.Cols
	qd := dense.ToF64(f.Q).View(0, 0, rows, n)
	rd := dense.ToF64(f.R)
	ad := dense.New[float64](rows, n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, qd, rd, 0, ad)
	return dense.ToF32(ad)
}
