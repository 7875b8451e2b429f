package gram

import (
	"fmt"
	"math"
	"sync"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/hazard"
	"tcqr/internal/house"
	"tcqr/internal/tcsim"
)

// Tile geometry of the paper's CUDA kernel: each threadblock owns a 256×32
// tile held entirely in shared memory.
const (
	// TileRows is the number of rows one simulated threadblock factorizes.
	TileRows = 256
	// TileCols is the fixed CAQR panel width.
	TileCols = 32
)

// Panel is a QR factorizer for tall panels (m >= n). Factor returns a fresh
// orthonormal Q (m×n) and upper-triangular R (n×n); the input is not
// modified. Implementations are the subject of the Figure 6 panel ablation.
// The panels of this package factor in place — Q written over the panel, R
// into the n×n view they are given — and their Factor is a clone and that
// call; FactorInto is how the recursion runs a panel.
//
// Factor reports numerical breakdown — a zero or linearly dependent column,
// a non-SPD Gram matrix, a non-finite factor — as an error wrapping
// hazard.ErrBreakdown instead of returning a corrupt factorization; the
// caller decides whether to retry with a more robust panel.
type Panel interface {
	Factor(a *dense.M32) (q, r *dense.M32, err error)
	Name() string
}

// inPlace is the one implementation of each panel of this package: Q over w,
// R into the n×n r (its strict lower triangle zeroed), breakdown reported as
// Factor reports it. On an error w holds no factor.
type inPlace interface {
	factorInto(w, r *dense.M32) error
}

// FactorInto factors the panel w with p in place: Q over w, R into r (n×n,
// typically a view of a larger R). The panels of this package write there
// directly; any other Panel — a wrapper that times or counts calls — runs its
// Factor, and Q and R are copied in.
func FactorInto(p Panel, w, r *dense.M32) error {
	if p, ok := p.(inPlace); ok {
		return p.factorInto(w, r)
	}
	q, rr, err := p.Factor(w)
	if err != nil {
		return err
	}
	w.CopyFrom(q)
	r.CopyFrom(rr)
	return nil
}

// factorCopy runs the in-place factorization into on a clone of a and a new
// R: Factor for the panels of this package, and CholQR.
func factorCopy(a *dense.M32, into func(w, r *dense.M32) error) (q, r *dense.M32, err error) {
	q, r = a.Clone(), dense.New[float32](a.Cols, a.Cols)
	if err := into(q, r); err != nil {
		return nil, nil, err
	}
	return q, r, nil
}

// checkFullRank validates the factor a Gram-Schmidt-family panel produced:
// every diagonal entry of R must be finite and nonzero. A zero diagonal is
// how MGS/CGS surface a zero or linearly dependent column (the tile tree
// inherits the property: a dependent column zeroes the stacked-R diagonal at
// some tree level and the zero propagates to the root). The returned errors
// wrap hazard.ErrBreakdown.
func checkFullRank(name string, r *dense.M32) error {
	for j := 0; j < r.Cols; j++ {
		d := r.At(j, j)
		if math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
			return fmt.Errorf("gram: %s: non-finite R(%d,%d) = %v: %w", name, j, j, d, hazard.ErrBreakdown)
		}
		if d == 0 {
			return fmt.Errorf("gram: %s: column %d is numerically zero or linearly dependent: %w", name, j, hazard.ErrBreakdown)
		}
	}
	return nil
}

// checkFinite validates a factor from a breakdown-free algorithm
// (Householder): the factors must be finite, but a zero R diagonal is
// acceptable — Householder QR of a rank-deficient panel still yields an
// orthonormal Q and a valid R.
func checkFinite(name string, q, r *dense.M32) error {
	if !hazard.MatrixFinite(r) || !hazard.MatrixFinite(q) {
		return fmt.Errorf("gram: %s: non-finite factor: %w", name, hazard.ErrBreakdown)
	}
	return nil
}

// CAQRPanel is the communication-avoiding Gram-Schmidt panel of Section
// 3.1.3. Panels wider than TileCols are reduced by the same
// split-project-update recursion as the outer algorithm (with fp32 GEMMs:
// the paper keeps the TensorCore out of the panel, Figure 7), and
// width-TileCols panels run the tile tree of Eq. 8.
type CAQRPanel struct {
	// RowBlock overrides TileRows (for tests); 0 uses TileRows.
	RowBlock int
}

// Name implements Panel.
func (p *CAQRPanel) Name() string { return "CAQR" }

// panelFP32 runs the width reduction's GEMMs.
var panelFP32 = &tcsim.FP32{}

func (p *CAQRPanel) rowBlock() int {
	if p.RowBlock > 0 {
		return p.RowBlock
	}
	return TileRows
}

// Factor implements Panel.
func (p *CAQRPanel) Factor(a *dense.M32) (q, r *dense.M32, err error) {
	return factorCopy(a, p.factorInto)
}

// trees holds tile-tree workspaces between panel calls: the panels of one
// factorization, and of the factorizations after it, take the one a call
// before them put back, laid out already for the leaf shape they share.
var trees = sync.Pool{New: func() any { return new(tileTree) }}

// factorInto is the CAQR panel in place. Breakdown — a zero or dependent
// column anywhere in the tile tree, or a non-finite factor — is reported as an
// error wrapping hazard.ErrBreakdown.
func (p *CAQRPanel) factorInto(w, r *dense.M32) error {
	if w.Rows < w.Cols {
		return fmt.Errorf("gram: CAQR panel requires m >= n, got %dx%d: %w", w.Rows, w.Cols, hazard.ErrShape)
	}
	t := trees.Get().(*tileTree)
	defer trees.Put(t)
	if rb := p.rowBlock(); t.rb != rb {
		*t = tileTree{rb: rb} // laid out at the first leaf
	}
	// Width reduction mirrors the outer RGSQRF on fp32 GEMMs, which writes
	// no block below R's diagonal. The tile tree never fails: breakdown shows
	// as a zero or non-finite R diagonal, checked on the assembled factor
	// below.
	r.Zero()
	_ = Recurse(w, r, TileCols, panelFP32, func(w, r *dense.M32) error {
		t.factor(w, r, 0)
		return nil
	})
	return checkFullRank("CAQR", r)
}

// Recurse is Algorithm 1 of the paper operating in place: w (m×n) holds A on
// entry and Q on exit; r is the n×n block of R being produced (its strict
// lower triangle is never written). Split the columns in half, factor the
// left half, form R12 = Q1ᵀ·A2 and the update A2 ← A2 − Q1·R12 with two
// GEMMs on e (these two lines carry ~half of all flops and are what a neural
// engine accelerates), factor the updated right half. At width <= cutoff the
// leaf takes over; a leaf error aborts the recursion and propagates up.
//
// This is the only copy of the recursion: RGSQRF runs it with the panel
// factorizer as leaf, the CAQR panel runs it below that with the tile tree
// as leaf. The views of every split live in one block per call, one split's
// views per level of the recursion.
func Recurse(w, r *dense.M32, cutoff int, e tcsim.Engine, leaf func(w, r *dense.M32) error) error {
	depth := 0
	for n := w.Cols; n > cutoff; n -= n / 2 {
		depth++
	}
	return recurse(w, r, cutoff, e, leaf, make([]splitViews, max(1, depth)))
}

// splitViews are the views of one split: the two halves of w, and R11, R12
// and R22.
type splitViews [5]dense.M32

func recurse(w, r *dense.M32, cutoff int, e tcsim.Engine, leaf func(w, r *dense.M32) error, vs []splitViews) error {
	n := w.Cols
	if n <= cutoff {
		return leaf(w, r)
	}
	m := w.Rows
	h := n / 2
	v := &vs[0]
	v[0], v[1] = view(w, 0, 0, m, h), view(w, 0, h, m, n-h)
	v[2], v[3], v[4] = view(r, 0, 0, h, h), view(r, 0, h, h, n-h), view(r, h, h, n-h, n-h)
	w1, w2, r12 := &v[0], &v[1], &v[3]
	if err := recurse(w1, &v[2], cutoff, e, leaf, vs[1:]); err != nil {
		return err
	}
	e.Gemm(blas.Trans, blas.NoTrans, 1, w1, w2, 0, r12)
	e.Gemm(blas.NoTrans, blas.NoTrans, -1, w1, r12, 1, w2)
	return recurse(w2, &v[4], cutoff, e, leaf, vs[1:])
}

// view is a.View(i, j, r, c) by value, for headers kept in a workspace.
func view(a *dense.M32, i, j, r, c int) dense.M32 {
	if r == 0 || c == 0 {
		return dense.M32{Rows: r, Cols: c, Stride: a.Stride}
	}
	off := i + j*a.Stride
	return dense.M32{Rows: r, Cols: c, Stride: a.Stride, Data: a.Data[off : off+(c-1)*a.Stride+r]}
}

// tileTree is the memory of the tile trees of a CAQR panel, sized by a leaf
// and reused by every leaf of that shape (every leaf of a power-of-two width
// has the same one), in this panel call and, through trees, in the calls
// after it: per tree level the contiguous tile copies and the stacked R
// factors, the level's headers and GemmBatch arguments, and one MGS work area
// that each level and the base case use in turn. Nothing in it is allocated
// per tile, and it is laid out again only when the leaf shape changes.
type tileTree struct {
	rb     int
	m, n   int // the leaf shape the memory is laid out for
	floats []float32
	work   []float32 // the MGS work area, the tail of floats
	levels []tileLevel
	mats   []dense.M32
	ptrs   []*dense.M32
}

// tileLevel is one level of the tree: the panel w cut into nt tiles of rb
// rows, the last one taking the remainder.
type tileLevel struct {
	w              *dense.M32
	rb, nt         int
	tiles, rows    []dense.M32 // Q_i contiguous; the panel rows of tile i
	blocks         []dense.M32 // block i of the stack: R_i, then Q2_i
	stack          dense.M32
	tileData, work []float32
	as, bs, cs     []*dense.M32
}

// plan walks the levels of an m×n tree and reports what they need: levels,
// floats of tiles and stacks, the MGS work area and the tiles.
func (t *tileTree) plan(m, n int) (levels, floats, work, tiles int) {
	rb := max(t.rb, n)
	for ; m > rb+n; m = m / rb * n {
		nt := m / rb
		levels++
		tiles += nt
		floats += m*n + nt*n*n
		work = max(work, nt*mgsWork(rb, n)+(m-nt*rb)*blas.MGSTileWork(1))
	}
	return levels, floats, max(work, mgsWork(m, n)), tiles
}

// layout sizes the memory for m×n leaves: one allocation per slice, however
// many levels and tiles the tree has.
func (t *tileTree) layout(m, n int) {
	if t.m == m && t.n == n {
		return
	}
	levels, floats, work, tiles := t.plan(m, n)
	t.m, t.n = m, n
	t.floats = make([]float32, max(1, floats+work))
	t.work = t.floats[floats:]
	t.levels = make([]tileLevel, max(1, levels))
	t.mats = make([]dense.M32, max(1, 3*tiles))
	t.ptrs = make([]*dense.M32, max(1, 3*tiles))
	rb, f, h := max(t.rb, n), 0, 0
	for d := 0; m > rb+n; m, d = m/rb*n, d+1 {
		nt := m / rb
		lv := &t.levels[d]
		lv.rb, lv.nt = rb, nt
		lv.tileData, f = t.floats[f:f+m*n], f+m*n
		lv.stack = dense.M32{Rows: nt * n, Cols: n, Stride: nt * n, Data: t.floats[f : f+nt*n*n]}
		f += nt * n * n
		lv.tiles, lv.rows, lv.blocks = t.mats[h:h+nt], t.mats[h+nt:h+2*nt], t.mats[h+2*nt:h+3*nt]
		lv.as, lv.bs, lv.cs = t.ptrs[h:h+nt], t.ptrs[h+nt:h+2*nt], t.ptrs[h+2*nt:h+3*nt]
		h += 3 * nt
		for i := 0; i < nt; i++ {
			lv.blocks[i] = view(&lv.stack, i*n, 0, n, n)
			lv.as[i], lv.bs[i], lv.cs[i] = &lv.tiles[i], &lv.blocks[i], &lv.rows[i]
		}
		lv.work = t.work
	}
}

// factor runs the Eq. 8 pipeline on a width ≤ TileCols panel w at tree level
// d:
//
//  1. split the rows into tiles and MGS-factor each, Q_i into a contiguous
//     copy and R_i into the stack (threadblocks in shared memory), as tasks
//     of the blas runner;
//  2. recurse on the stack of R factors until it fits in one tile;
//  3. apply the recursion's Q to each tile's Q with one batched GEMM, whose
//     products write the panel's Q straight from the tile copies.
func (t *tileTree) factor(w, r *dense.M32, d int) {
	m, n := w.Rows, w.Cols
	if d == 0 {
		t.layout(m, n)
	}
	if m <= max(t.rb, n)+n {
		// Base case: a single threadblock suffices (the paper recurses
		// "until the number of rows is below 256").
		mgsTile(w, w, r, t.work)
		return
	}
	lv := &t.levels[d]
	lv.w = w
	for i := 0; i < lv.nt; i++ {
		rows := lv.tileRows(i)
		lv.tiles[i] = dense.M32{Rows: rows, Cols: n, Stride: rows, Data: lv.tileData[i*lv.rb*n : (i*lv.rb+rows)*n]}
		lv.rows[i] = view(w, i*lv.rb, 0, rows, n)
	}
	blas.ParallelTasks(lv.nt, lv)
	t.factor(&lv.stack, r, d+1)
	// The batch is exactly cuBLAS batched SGEMM.
	blas.GemmBatch(blas.NoTrans, blas.NoTrans, 1, lv.as, lv.bs, 0, lv.cs)
}

// tileRows is the height of tile i: rb, and the remainder folded into the
// last tile so every tile has at least rb rows.
func (lv *tileLevel) tileRows(i int) int {
	if i == lv.nt-1 {
		return lv.w.Rows - i*lv.rb
	}
	return lv.rb
}

// RunTask factors tile i of the level: panel rows into the tile copy, R_i
// into block i of the stack, on its own part of the MGS work area.
func (lv *tileLevel) RunTask(i int) {
	n := lv.w.Cols
	per := mgsWork(lv.rb, n)
	mgsTile(&lv.rows[i], &lv.tiles[i], &lv.blocks[i], lv.work[i*per:i*per+mgsWork(lv.tileRows(i), n)])
}

// HouseholderPanel adapts blocked Householder QR (the cuSOLVER SGEQRF
// baseline, block size house.DefaultBlockSize) to the Panel interface — the
// right bar of Figure 6.
type HouseholderPanel struct{}

// Name implements Panel.
func (p *HouseholderPanel) Name() string { return "SGEQRF" }

// Factor implements Panel.
func (p *HouseholderPanel) Factor(a *dense.M32) (q, r *dense.M32, err error) {
	return factorCopy(a, p.factorInto)
}

// factorInto is the Householder panel in place: the reflectors overwrite w,
// R is copied out of its upper triangle, and the Q they form is copied back
// over them. Householder QR has no Gram-Schmidt breakdown mode — a
// rank-deficient panel still yields an orthonormal Q — so it is the last
// panel rung of the Factorize recovery ladder; only non-finite factors are
// rejected.
func (p *HouseholderPanel) factorInto(w, r *dense.M32) error {
	tau := house.Geqrf(w, house.DefaultBlockSize)
	r.Zero()
	for j := 0; j < r.Cols; j++ {
		copy(r.Col(j)[:j+1], w.Col(j))
	}
	w.CopyFrom(house.Orgqr(w, tau, house.DefaultBlockSize))
	return checkFinite("SGEQRF", w, r)
}

// MGSPanel is the plain single-tile modified Gram-Schmidt panel, included
// as the simplest baseline and for the §3.6 error comparisons.
type MGSPanel struct{}

// Name implements Panel.
func (MGSPanel) Name() string { return "MGS" }

// Factor implements Panel.
func (p MGSPanel) Factor(a *dense.M32) (q, r *dense.M32, err error) {
	return factorCopy(a, p.factorInto)
}

// factorInto is the MGS panel in place.
func (MGSPanel) factorInto(w, r *dense.M32) error {
	MGS(w, r)
	return checkFullRank("MGS", r)
}
