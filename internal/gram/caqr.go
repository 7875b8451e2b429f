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
//
// Factor reports numerical breakdown — a zero or linearly dependent column,
// a non-SPD Gram matrix, a non-finite factor — as an error wrapping
// hazard.ErrBreakdown instead of returning a corrupt factorization. The
// Ladder panel turns such errors into escalation along a chain of
// progressively more robust factorizers.
type Panel interface {
	Factor(a *dense.M32) (q, r *dense.M32, err error)
	Name() string
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

// Factor implements Panel. Breakdown — a zero or dependent column anywhere
// in the tile tree, or a non-finite factor — is reported as an error
// wrapping hazard.ErrBreakdown.
func (p *CAQRPanel) Factor(a *dense.M32) (q, r *dense.M32, err error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, nil, fmt.Errorf("gram: CAQR panel requires m >= n, got %dx%d: %w", m, n, hazard.ErrShape)
	}
	q = a.Clone()
	r = dense.New[float32](n, n)
	// Width reduction mirrors the outer RGSQRF on fp32 GEMMs. The tile tree
	// never fails: breakdown shows as a zero or non-finite R diagonal, checked
	// on the assembled factor below.
	_ = Recurse(q, r, TileCols, panelFP32, func(w, r *dense.M32) error {
		p.tileTree(w, r)
		return nil
	})
	if err := checkFullRank("CAQR", r); err != nil {
		return nil, nil, err
	}
	return q, r, nil
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
// as leaf.
func Recurse(w, r *dense.M32, cutoff int, e tcsim.Engine, leaf func(w, r *dense.M32) error) error {
	n := w.Cols
	if n <= cutoff {
		return leaf(w, r)
	}
	m := w.Rows
	h := n / 2
	w1 := w.View(0, 0, m, h)
	w2 := w.View(0, h, m, n-h)
	r12 := r.View(0, h, h, n-h)
	if err := Recurse(w1, r.View(0, 0, h, h), cutoff, e, leaf); err != nil {
		return err
	}
	e.Gemm(blas.Trans, blas.NoTrans, 1, w1, w2, 0, r12)
	e.Gemm(blas.NoTrans, blas.NoTrans, -1, w1, r12, 1, w2)
	return Recurse(w2, r.View(h, h, n-h, n-h), cutoff, e, leaf)
}

// tileTree runs the Eq. 8 pipeline on a width ≤ TileCols panel:
//
//  1. split the rows into tiles and MGS-factor each tile concurrently
//     (threadblocks in shared memory);
//  2. stack the tile R factors;
//  3. recurse on the stack until it fits in one tile;
//  4. apply the recursion's Q to each tile's Q with a batched GEMM;
//  5. reinterpret the result as the panel's QR.
func (p *CAQRPanel) tileTree(w, r *dense.M32) {
	m, n := w.Rows, w.Cols
	rb := p.rowBlock()
	if rb < n {
		rb = n
	}
	if m <= rb+n {
		// Base case: a single threadblock suffices (the paper recurses
		// "until the number of rows is below 256").
		MGS(w, r)
		return
	}
	// Step 1: tile boundaries. Every tile gets rb rows; the remainder is
	// folded into the last tile so every tile has at least rb rows.
	nt := m / rb
	bounds := make([]int, nt+1)
	for i := 0; i < nt; i++ {
		bounds[i] = i * rb
	}
	bounds[nt] = m

	tileQ := make([]*dense.M32, nt)
	stack := dense.New[float32](nt*n, n) // step 2: stacked R factors
	var wg sync.WaitGroup
	for i := 0; i < nt; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tile := w.View(bounds[i], 0, bounds[i+1]-bounds[i], n)
			ri := stack.View(i*n, 0, n, n)
			MGS(tile, ri) // tile becomes Q_i in place
			tileQ[i] = tile
		}(i)
	}
	wg.Wait()

	// Step 3: recurse on the stacked R factors, in place: the stack becomes
	// the recursion's Q and r receives its R.
	p.tileTree(stack, r)

	// Step 4: batched GEMM Q_i ← Q_i · Q2_i. The multiplication cannot run
	// in place, so stage each tile product in a scratch buffer.
	q2Blocks := make([]*dense.M32, nt)
	scratch := make([]*dense.M32, nt)
	for i := 0; i < nt; i++ {
		q2Blocks[i] = stack.View(i*n, 0, n, n)
		scratch[i] = dense.New[float32](tileQ[i].Rows, n)
	}
	// The batch is exactly cuBLAS batched SGEMM.
	blas.GemmBatch(blas.NoTrans, blas.NoTrans, 1, tileQ, q2Blocks, 0, scratch)
	for i := 0; i < nt; i++ {
		tileQ[i].CopyFrom(scratch[i]) // step 5: w now holds the panel Q
	}
}

// HouseholderPanel adapts blocked Householder QR (the cuSOLVER SGEQRF
// baseline, block size house.DefaultBlockSize) to the Panel interface — the
// right bar of Figure 6.
type HouseholderPanel struct{}

// Name implements Panel.
func (p *HouseholderPanel) Name() string { return "SGEQRF" }

// Factor implements Panel. Householder QR has no Gram-Schmidt breakdown
// mode — a rank-deficient panel still yields an orthonormal Q — so it is
// the terminal rung of the fallback ladder; only non-finite factors are
// rejected.
func (p *HouseholderPanel) Factor(a *dense.M32) (q, r *dense.M32, err error) {
	f := a.Clone()
	tau := house.Geqrf(f, house.DefaultBlockSize)
	q, r = house.Orgqr(f, tau, house.DefaultBlockSize), house.ExtractR(f)
	if err := checkFinite("SGEQRF", q, r); err != nil {
		return nil, nil, err
	}
	return q, r, nil
}

// MGSPanel is the plain single-tile modified Gram-Schmidt panel, included
// as the simplest baseline and for the §3.6 error comparisons.
type MGSPanel struct{}

// Name implements Panel.
func (MGSPanel) Name() string { return "MGS" }

// Factor implements Panel.
func (MGSPanel) Factor(a *dense.M32) (q, r *dense.M32, err error) {
	q = a.Clone()
	r = dense.New[float32](a.Cols, a.Cols)
	MGS(q, r)
	if err := checkFullRank("MGS", r); err != nil {
		return nil, nil, err
	}
	return q, r, nil
}
