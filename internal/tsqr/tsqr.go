// Package tsqr implements Direct TSQR (Benson, Gleich & Demmel,
// arXiv:1301.1071) for tall-skinny matrices: the m×n input (m >= n) is cut
// into row blocks, every block is QR-factorized independently (and
// concurrently), the stacked n×n R factors are reduced pairwise up a binary
// tree, and the explicit thin Q is recovered by composing the tree's small
// orthogonal factors down to the leaves with one batched GEMM.
//
// # Determinism contract
//
// The numerical result depends only on the input and on the *canonical
// partition* — the fixed BlockRows chunk height and the fixed pairwise
// reduction tree in chunk-index order. The Workers option is scheduling
// only: it bounds how many block factorizations run at once but never
// changes which floating-point operations run on which operands, so the
// factors are Float64bits-identical for every Workers value and every
// GOMAXPROCS. (Changing BlockRows changes the partition and therefore the
// rounding — results across *different* BlockRows agree to factorization
// accuracy, not bit-for-bit; the golden tests pin this distinction.)
//
// After the reduction the R diagonal is sign-canonicalized to be
// non-negative (Q absorbs the flips), so TSQR and the serial factorization
// produce the same canonical R regardless of the per-block sign
// conventions their panels happened to choose.
//
// # Why this package is still here
//
// No factorization the library, the CLI or the daemon runs reaches it: every
// request factors through rgs.Factor and the tile tree of gram.CAQRPanel. Its
// one importer is the benchmark's kernel probe (benchmark/probe.go, the
// tsqr.factor_ms and tsqr.vs_rgs_ratio rows), and benchmark/ changes only in
// a [benchmark] PR; it goes with those rows (ROADMAP item 8(a)).
package tsqr

import (
	"fmt"
	"runtime"
	"sync"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/faultinject"
	"tcqr/internal/gram"
	"tcqr/internal/hazard"
)

// DefaultBlockRows is the canonical chunk height: tall enough that each
// block amortizes its panel overhead, short enough that a 4096-row matrix
// yields 8-way block parallelism.
const DefaultBlockRows = 512

// Fault-injection sites (see internal/faultinject). Armed specs can force
// errors, panics, or delays at each stage of the pipeline.
const (
	// SiteBlockFactor fires once per leaf block factorization.
	SiteBlockFactor = "tsqr.block.factor"
	// SiteTreeReduce fires once per internal reduction-tree node.
	SiteTreeReduce = "tsqr.tree.reduce"
)

// Options configures a factorization. The zero value uses the canonical
// DefaultBlockRows partition, GOMAXPROCS workers, and the FP32 CAQR panel.
type Options struct {
	// BlockRows is the canonical chunk height of the numerical partition
	// (0 = DefaultBlockRows). It is clamped to at least the column count so
	// every block is itself tall. BlockRows is part of the result's
	// identity: two runs agree bit-for-bit exactly when their BlockRows
	// agree.
	BlockRows int
	// Workers bounds how many block/node factorizations run concurrently
	// (<= 0 = GOMAXPROCS). Scheduling only — never changes result bits.
	Workers int
	// Panel factors each block and each reduction node (nil = the FP32
	// CAQR panel).
	Panel gram.Panel
}

func (o *Options) blockRows(n int) int {
	rb := o.BlockRows
	if rb <= 0 {
		rb = DefaultBlockRows
	}
	if rb < n {
		rb = n
	}
	return rb
}

func (o *Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o *Options) panel() gram.Panel {
	if o.Panel != nil {
		return o.Panel
	}
	return defaultPanel
}

var defaultPanel = &gram.CAQRPanel{}

// Stats reports the shape of one factorization.
type Stats struct {
	// Blocks is the number of leaf row blocks of the canonical partition.
	Blocks int
	// Levels is the depth of the reduction tree (0 when Blocks == 1).
	Levels int
	// Workers is the effective scheduling bound the run used.
	Workers int
	// BlockRows is the effective canonical chunk height.
	BlockRows int
}

// Result is a computed factorization A = Q·R with Q m×n orthonormal, R n×n
// upper triangular with non-negative diagonal.
type Result struct {
	Q *dense.M32
	R *dense.M32
	Stats
}

// Factor computes the Direct TSQR factorization of a (m×n, m >= n). The
// input is not modified. Panel breakdowns (zero or dependent columns)
// propagate as errors wrapping hazard.ErrBreakdown, tagged with the block
// or tree node that hit them. A panicking panel (or an armed panic
// failpoint) is contained and surfaced as a breakdown error rather than
// tearing down the worker group.
//
// Finiteness of the input is NOT validated here (the public tcqr wrapper
// does); non-finite inputs yield non-finite factors or breakdown errors.
func Factor(a *dense.M32, opts Options) (*Result, error) {
	if a == nil {
		return nil, fmt.Errorf("tsqr: nil matrix: %w", hazard.ErrEmpty)
	}
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("tsqr: matrix is %dx%d; TSQR requires m >= n: %w", m, n, hazard.ErrShape)
	}
	if m == 0 || n == 0 {
		return nil, fmt.Errorf("tsqr: matrix is %dx%d: %w", m, n, hazard.ErrEmpty)
	}

	rb := opts.blockRows(n)
	workers := opts.workers()
	panel := opts.panel()

	// Canonical partition, mirroring the CAQR tile tree: nb full chunks of
	// rb rows with the remainder folded into the last chunk, so every chunk
	// has at least rb >= n rows.
	nb := m / rb
	if nb < 1 {
		nb = 1
	}
	bounds := make([]int, nb+1)
	for i := 0; i < nb; i++ {
		bounds[i] = i * rb
	}
	bounds[nb] = m

	res := &Result{Stats: Stats{
		Blocks:    nb,
		Workers:   workers,
		BlockRows: rb,
	}}

	// Stage 1: factor every leaf block concurrently (bounded).
	leafQ := make([]*dense.M32, nb)
	leafR := make([]*dense.M32, nb)
	errs := make([]error, nb)
	runBounded(workers, nb, func(i int) {
		q, r, err := safeFactor(SiteBlockFactor, panel, a.View(bounds[i], 0, bounds[i+1]-bounds[i], n))
		if err != nil {
			errs[i] = fmt.Errorf("tsqr: block %d (rows %d:%d): %w", i, bounds[i], bounds[i+1], err)
			return
		}
		leafQ[i], leafR[i] = q, r
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	if nb == 1 {
		// Single chunk: no tree. Canonicalize signs directly on the factors.
		canonicalizeSigns(leafQ[0], leafR[0])
		res.Q, res.R = leafQ[0], leafR[0]
		return res, nil
	}

	// Stage 2: pairwise binary tree over the R factors, in chunk-index
	// order. Node k of a level factors the 2n×n stack [cur[2k]; cur[2k+1]];
	// an odd trailing R passes through unchanged. The tree shape is a pure
	// function of nb, so the reduction is deterministic no matter how the
	// node factorizations are scheduled.
	type treeNode struct {
		q    *dense.M32 // 2n×n node factor; nil for a passthrough node
		pass bool
	}
	var tree [][]treeNode
	cur := leafR
	for len(cur) > 1 {
		pairs := len(cur) / 2
		odd := len(cur)%2 == 1
		width := pairs
		if odd {
			width++
		}
		lvl := make([]treeNode, width)
		next := make([]*dense.M32, width)
		nerrs := make([]error, pairs)
		runBounded(workers, pairs, func(k int) {
			stacked := dense.New[float32](2*n, n)
			stacked.View(0, 0, n, n).CopyFrom(cur[2*k])
			stacked.View(n, 0, n, n).CopyFrom(cur[2*k+1])
			q, r, err := safeFactor(SiteTreeReduce, panel, stacked)
			if err != nil {
				nerrs[k] = fmt.Errorf("tsqr: reduce level %d node %d: %w", len(tree), k, err)
				return
			}
			lvl[k] = treeNode{q: q}
			next[k] = r
		})
		if err := firstError(nerrs); err != nil {
			return nil, err
		}
		if odd {
			lvl[pairs] = treeNode{pass: true}
			next[pairs] = cur[len(cur)-1]
		}
		tree = append(tree, lvl)
		cur = next
	}
	rootR := cur[0]
	res.Levels = len(tree)

	// Stage 3: sign-canonicalize the root R and recover the explicit Q by
	// composing each tree node's factor down to its leaves. The downstream
	// transform starts as D = diag(signs) so Q·R is unchanged by the
	// canonicalization; at a node with 2n×n factor Qk and downstream
	// transform T, the left child inherits Qk[0:n,:]·T and the right child
	// Qk[n:2n,:]·T. Finally Q_block_i = leafQ_i·T_i in one batched GEMM.
	signs := canonicalizeR(rootR)
	rootT := dense.New[float32](n, n)
	for j := 0; j < n; j++ {
		rootT.Set(j, j, signs[j])
	}
	trans := []*dense.M32{rootT}
	for l := len(tree) - 1; l >= 0; l-- {
		lvl := tree[l]
		childCount := 0
		for _, nd := range lvl {
			if nd.pass {
				childCount++
			} else {
				childCount += 2
			}
		}
		childTrans := make([]*dense.M32, childCount)
		var aList, bList, cList []*dense.M32
		for k, nd := range lvl {
			t := trans[k]
			if nd.pass {
				childTrans[2*k] = t
				continue
			}
			top := nd.q.View(0, 0, n, n)
			bot := nd.q.View(n, 0, n, n)
			tTop := dense.New[float32](n, n)
			tBot := dense.New[float32](n, n)
			aList = append(aList, top, bot)
			bList = append(bList, t, t)
			cList = append(cList, tTop, tBot)
			childTrans[2*k] = tTop
			childTrans[2*k+1] = tBot
		}
		blas.GemmBatch(blas.NoTrans, blas.NoTrans, 1, aList, bList, 0, cList)
		trans = childTrans
	}

	q := dense.New[float32](m, n)
	outBlocks := make([]*dense.M32, nb)
	for i := 0; i < nb; i++ {
		outBlocks[i] = q.View(bounds[i], 0, bounds[i+1]-bounds[i], n)
	}
	blas.GemmBatch(blas.NoTrans, blas.NoTrans, 1, leafQ, trans, 0, outBlocks)

	res.Q, res.R = q, rootR
	return res, nil
}

// safeFactor fires the stage failpoint and runs one panel factorization,
// containing panics (from an armed panic action or a misbehaving panel) as
// breakdown errors so a single poisoned block cannot tear down the process
// from inside a worker goroutine.
func safeFactor(site string, p gram.Panel, a *dense.M32) (q, r *dense.M32, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			q, r = nil, nil
			err = fmt.Errorf("tsqr: panic in %s panel: %v: %w", p.Name(), rec, hazard.ErrBreakdown)
		}
	}()
	if ferr := faultinject.Fire(site); ferr != nil {
		return nil, nil, ferr
	}
	return p.Factor(a)
}

// runBounded executes fn(0..n-1) with at most `workers` concurrent calls —
// the same bounded-worker semantics as the serve pool, minus the queue
// (all n tasks are known up front).
func runBounded(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() {
				<-sem
				wg.Done()
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// firstError returns the lowest-index error so concurrent failures surface
// deterministically.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// canonicalizeR flips every row of r whose diagonal is negative so the
// diagonal is non-negative, returning the per-column signs (+1/-1) the
// caller must absorb into Q. Sign flips are exact in floating point, so
// canonicalization never perturbs the factorization.
func canonicalizeR(r *dense.M32) []float32 {
	n := r.Cols
	signs := make([]float32, n)
	for j := range signs {
		signs[j] = 1
	}
	for i := 0; i < n; i++ {
		if r.At(i, i) < 0 {
			signs[i] = -1
			for j := i; j < n; j++ {
				r.Set(i, j, -r.At(i, j))
			}
		}
	}
	return signs
}

// canonicalizeSigns applies the single-block canonicalization in place:
// rows of r and the matching columns of q are negated together.
func canonicalizeSigns(q, r *dense.M32) {
	signs := canonicalizeR(r)
	for j, s := range signs {
		if s < 0 {
			col := q.Col(j)
			for i := range col {
				col[i] = -col[i]
			}
		}
	}
}
