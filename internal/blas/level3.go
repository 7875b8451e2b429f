package blas

import (
	"fmt"
	"sync/atomic"

	"tcqr/internal/dense"
)

// Gemm computes C ← α·op(A)·op(B) + β·C.
//
// Large products run through a GotoBLAS-style packed kernel: panels of op(A)
// and op(B) are packed into contiguous cache-sized slabs (both transpose
// flags are resolved at pack time, so the inner loop is always NN) and a
// register-tiled micro-kernel sweeps 2-D tiles of C. op(B) is packed once per
// call and shared; the C tiles are parallel tasks, each owned by exactly one
// task and accumulating its k-slabs in a fixed ascending order, so results
// are bit-identical for any GOMAXPROCS. Small products use the column-sweep
// reference kernel, serially.
func Gemm[T dense.Float](tA, tB Transpose, alpha T, a, b *dense.Matrix[T], beta T, c *dense.Matrix[T]) {
	gemmHooked(tA, tB, alpha, a, b, beta, c, nil, nil, false)
}

// GemmHooked is Gemm with per-operand pack hooks: hookA/hookB are applied in
// place to every packed panel of op(A)/op(B), while the panel is still cache
// resident. The simulated neural engines use this to fuse operand rounding
// (and, with count == true, overflow/underflow accounting) into the packing
// pass, instead of making separate full sweeps over the operands.
//
// When count is true and a hook provides RoundCount, every source element
// contributes to the returned totals exactly once, regardless of how many
// times blocking re-packs it. Results are bit-identical to calling Gemm on
// pre-rounded copies of the operands.
func GemmHooked[T dense.Float](tA, tB Transpose, alpha T, a, b *dense.Matrix[T], beta T, c *dense.Matrix[T], hookA, hookB *PackHook[T], count bool) (overflow, underflow int64) {
	return gemmHooked(tA, tB, alpha, a, b, beta, c, hookA, hookB, count)
}

func gemmHooked[T dense.Float](tA, tB Transpose, alpha T, a, b *dense.Matrix[T], beta T, c *dense.Matrix[T], hookA, hookB *PackHook[T], count bool) (ov, uf int64) {
	m, n, k := checkGemm(tA, tB, a, b, c)
	if m == 0 || n == 0 || alpha == 0 || k == 0 {
		// Degenerate product: no packing happens, but engines that track
		// fp16 specials still expect both operands to be inspected.
		if count {
			pb := getPackBuf[T]()
			oa, ua := hookCountOnly(hookA, a, pb)
			ob, ub := hookCountOnly(hookB, b, pb)
			putPackBuf(pb)
			ov, uf = oa+ob, ua+ub
		}
		if m > 0 && n > 0 {
			scaleCols(c, beta, 0, n)
		}
		return ov, uf
	}
	if GemmPacked(m, n, k) {
		return gemmBlocked(hookedKernel(hookA, hookB), tA, tB, alpha, a, b, beta, c, m, n, k, hookA, hookB, count)
	}
	return gemmSmall(tA, tB, alpha, a, b, beta, c, m, n, k, hookA, hookB, count)
}

// GemmPacked reports whether Gemm runs an m×n output of inner dimension k on
// the packed kernel, which pays for itself only there: very narrow outputs
// waste micro-tile lanes on padding, and tiny products are dominated by
// packing traffic; both go to the reference kernel. The packed kernel gives a
// row of C the same bits whichever rows surround it (see splitMC), so a
// caller may compute a product in row strips and get the whole product's
// bits, as long as every strip takes the packed kernel too.
func GemmPacked(m, n, k int) bool {
	return m >= scalarMR && n >= kernelNR && m*n*k >= gemmBlockedMinFlops
}

// hookCountOnly runs a hook's RoundCount over a scratch copy of every column
// of src purely for its counts, leaving src untouched.
func hookCountOnly[T dense.Float](h *PackHook[T], src *dense.Matrix[T], pb *packBuf[T]) (ov, uf int64) {
	if h == nil || h.RoundCount == nil || src.Rows == 0 || src.Cols == 0 {
		return 0, 0
	}
	scratch := pb.growA(src.Rows)
	for j := 0; j < src.Cols; j++ {
		copy(scratch, src.Col(j))
		o, u := h.RoundCount(scratch)
		ov += o
		uf += u
	}
	return ov, uf
}

// gemmSmall runs the reference kernel, applying hooks (if any) to pooled
// tight copies of the operands first. Serial: at these sizes goroutine
// fan-out costs more than it saves.
func gemmSmall[T dense.Float](tA, tB Transpose, alpha T, a, b *dense.Matrix[T], beta T, c *dense.Matrix[T], m, n, k int, hookA, hookB *PackHook[T], count bool) (ov, uf int64) {
	if hookA == nil && hookB == nil {
		gemmCols(tA, tB, alpha, a, b, beta, c, 0, n, k, m)
		return 0, 0
	}
	pb := getPackBuf[T]()
	ra, oa, ua := hookedCopy(hookA, a, pb.growA(a.Rows*a.Cols), &pb.am, count)
	rb, ob, ub := hookedCopy(hookB, b, pb.growB(b.Rows*b.Cols), &pb.bm, count)
	gemmCols(tA, tB, alpha, ra, rb, beta, c, 0, n, k, m)
	putPackBuf(pb)
	return oa + ob, ua + ub
}

// hookedCopy copies src tightly into buf, applies the hook in place, and
// returns hdr wired to the result (or src itself when the hook is nil).
func hookedCopy[T dense.Float](h *PackHook[T], src *dense.Matrix[T], buf []T, hdr *dense.Matrix[T], count bool) (*dense.Matrix[T], int64, int64) {
	if h == nil {
		return src, 0, 0
	}
	rows := src.Rows
	for j := 0; j < src.Cols; j++ {
		copy(buf[j*rows:j*rows+rows], src.Col(j))
	}
	var ov, uf int64
	if count && h.RoundCount != nil {
		ov, uf = h.RoundCount(buf)
	} else {
		h.Round(buf)
	}
	hdr.Rows = rows
	hdr.Cols = src.Cols
	hdr.Stride = max(1, rows)
	hdr.Data = buf
	return hdr, ov, uf
}

// gemmJob carries one blocked GEMM through runTasks.
//
// The GEMM takes the columns of op(B) in blocks — all n unless one k-slab of
// them is larger than gemmBMax — and each block's k-slabs in groups — one
// group unless the block's op(B) is larger than gemmBMax — and runs each group
// in two parallel phases. packing: task t packs columns
// [(t mod packPer)·packCols, …) of the block in slab s0 + t div packPer, into
// one buffer every tile task then reads, and the hook rounds (and counts) each
// element of B exactly once. Then tiles: task t owns the C macro-tile
// (t mod mTiles, t div mTiles) of the block, packs its rows of op(A) for each
// slab and sweeps the group's slabs in ascending order. Tiles are disjoint and
// every C element takes its slabs in the same order whatever the blocking and
// tiling, so any number of workers produces identical bits.
type gemmJob[T dense.Float] struct {
	packing      bool // the phase: pack op(B), or compute C macro-tiles
	kern         kernel
	tA, tB       Transpose
	alpha, beta  T
	a, b, c      *dense.Matrix[T]
	m, n, k      int
	mc, nc, kc   int
	mTiles       int
	hookA, hookB *PackHook[T]
	count        bool
	ov, uf       int64 // atomic

	bp                []T // packed op(B) of the block in slabs [s0, s1); slab s at (s−s0)·kc·nPad
	j0, jn            int // the block: columns [j0, j0+jn) of op(B) and C
	nPad              int // jn rounded up to kernelNR
	s0, s1            int
	packCols, packPer int // columns per packing task, packing tasks per slab
}

// gemmBMax is the most elements of packed op(B) held at once, unless one
// k-slab of a gemmNC-column block is larger: 2^20 elements (4 MB of float32,
// 8 MB of float64). It takes every factorization GEMM of a 2048×512 or a
// 4096×128 least-squares solve in one group of slabs and one block of columns
// (the largest op(B) is the 2048×256 one of the 256×256×2048 R12). A
// variable, like the blocking parameters, so tests can force several groups
// and blocks on small inputs.
var gemmBMax = 1 << 20

// packTaskElems is about how many elements of op(B) one packing task packs:
// 64 columns of a 256-deep slab, so the 2048×256 op(B) of the 256×256×2048
// R12 is 32 tasks and a 64×64 op(B) is one, which the caller packs alone.
const packTaskElems = 1 << 14

func (g *gemmJob[T]) RunTask(t int) {
	if g.packing {
		g.packB(t)
	} else {
		g.tile(t)
	}
}

// slab returns the first k index and the depth of k-slab s and its packed
// op(B), whose kernelNR-column micro-panel q starts at q·kernelNR·kb.
func (g *gemmJob[T]) slab(s int) (p0, kb int, bp []T) {
	p0 = s * g.kc
	kb = min(g.kc, g.k-p0)
	off := (s - g.s0) * g.kc * g.nPad
	return p0, kb, g.bp[off : off+kb*g.nPad]
}

func (g *gemmJob[T]) packB(t int) {
	p0, kb, bp := g.slab(g.s0 + t/g.packPer)
	j := t % g.packPer * g.packCols // a multiple of kernelNR, from the block's first column
	jb := min(g.packCols, g.jn-j)
	dst := bp[j*kb : (j+(jb+kernelNR-1)/kernelNR*kernelNR)*kb]
	packBPanel(dst, g.b, g.tB, p0, g.j0+j, kb, jb)
	if g.hookB != nil {
		g.round(g.hookB, dst, g.count)
	}
}

func (g *gemmJob[T]) tile(t int) {
	mr := g.kern.mr()
	icIdx, jcIdx := t%g.mTiles, t/g.mTiles
	i0, j := icIdx*g.mc, jcIdx*g.nc
	ib, jb := min(g.mc, g.m-i0), min(g.nc, g.jn-j)
	aPanels := (ib + mr - 1) / mr
	pb := getPackBuf[T]()
	bufA := pb.growA(aPanels * mr * g.kc)
	for s := g.s0; s < g.s1; s++ {
		p0, kb, bp := g.slab(s)
		aa := bufA[:aPanels*mr*kb]
		packAPanel(aa, g.a, g.tA, i0, p0, ib, kb, mr)
		if g.hookA != nil {
			// op(A) rows are packed once per column of macro-tiles; counting
			// on the first column of C only tallies every element once.
			g.round(g.hookA, aa, g.count && g.j0+j == 0)
		}
		gemmMacro(g.kern, aa, bp[j*kb:], g.alpha, g.beta, g.c, i0, ib, g.j0+j, jb, kb, p0 == 0)
	}
	putPackBuf(pb)
}

// round applies a hook to a packed panel, adding its counts to the job's
// when count is set and the hook can count.
func (g *gemmJob[T]) round(h *PackHook[T], panel []T, count bool) {
	if !count || h.RoundCount == nil {
		h.Round(panel)
		return
	}
	ov, uf := h.RoundCount(panel)
	if ov != 0 {
		atomic.AddInt64(&g.ov, ov)
	}
	if uf != 0 {
		atomic.AddInt64(&g.uf, uf)
	}
}

func gemmBlocked[T dense.Float](kern kernel, tA, tB Transpose, alpha T, a, b *dense.Matrix[T], beta T, c *dense.Matrix[T], m, n, k int, hookA, hookB *PackHook[T], count bool) (int64, int64) {
	const nr = kernelNR
	job := getGemmJob[T]()
	*job = gemmJob[T]{
		kern: kern, tA: tA, tB: tB, alpha: alpha, beta: beta,
		a: a, b: b, c: c, m: m, n: n, k: k,
		nc: max(nr, gemmNC/nr*nr), kc: gemmKC,
		hookA: hookA, hookB: hookB, count: count,
	}
	block := n
	if job.kc*((n+nr-1)/nr*nr) > gemmBMax {
		block = max(job.nc, gemmBMax/job.kc/job.nc*job.nc)
	}
	nTiles := (block + job.nc - 1) / job.nc
	job.mc = splitMC(m, nTiles, kern.mr(), maxWorkers())
	job.mTiles = (m + job.mc - 1) / job.mc
	job.packCols = max(nr, packTaskElems/job.kc/nr*nr)
	slabs := (k + job.kc - 1) / job.kc
	pb := getPackBuf[T]()
	for j0 := 0; j0 < n; j0 += block {
		job.j0, job.jn = j0, min(block, n-j0)
		job.nPad = (job.jn + nr - 1) / nr * nr
		job.packPer = (job.jn + job.packCols - 1) / job.packCols
		group := max(1, gemmBMax/(job.kc*job.nPad))
		job.bp = pb.growB(min(group, slabs) * job.kc * job.nPad)
		for s0 := 0; s0 < slabs; s0 += group {
			job.s0, job.s1 = s0, min(slabs, s0+group)
			job.packing = true
			ParallelTasks((job.s1-job.s0)*job.packPer, job)
			job.packing = false
			ParallelTasks(job.mTiles*((job.jn+job.nc-1)/job.nc), job)
		}
	}
	ov, uf := job.ov, job.uf
	putPackBuf(pb)
	putGemmJob(job)
	return ov, uf
}

// splitMC returns the macro-tile height for an m-row output with nTiles
// macro-tile columns on workers workers: gemmMC, unless that leaves a worker
// without a macro-tile, in which case the rows are cut into one strip per
// worker and column, each a multiple of mr. Which task owns a row never
// changes the row's bits. The 128×128×2048 TensorCore R12 and the CAQR
// panel's 64×64×2048 float32 R12 are one macro-tile each at gemmMC; split,
// their rows of BenchmarkEngineShapes in internal/tcsim (tc-r12-128x128x2048,
// fp32-r12-64x64x2048) take 1.54 and 0.52 ms at -cpu 2 against 2.58 and 0.80
// unsplit (medians of six alternating runs on a busy 2-vCPU AVX-512 VM).
func splitMC(m, nTiles, mr, workers int) int {
	if (m+gemmMC-1)/gemmMC*nTiles >= workers {
		return gemmMC
	}
	strips := (workers + nTiles - 1) / nTiles
	return min(gemmMC, max(mr, ((m+strips-1)/strips+mr-1)/mr*mr))
}

// Syrk computes the symmetric rank-k update. With t == NoTrans it forms
// C ← α·A·Aᵀ + β·C; with t == Trans it forms C ← α·Aᵀ·A + β·C. Only the
// triangle selected by uplo is referenced and written. Off-diagonal
// rectangles of the triangle are routed through the packed Gemm kernel;
// diagonal blocks run a row-buffered (NoTrans) or column-dot (Trans) sweep.
func Syrk[T dense.Float](uplo Uplo, t Transpose, alpha T, a *dense.Matrix[T], beta T, c *dense.Matrix[T]) {
	n, k := opShape(t, a)
	if c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("blas: syrk output %dx%d, want %dx%d", c.Rows, c.Cols, n, n))
	}
	const nb = 64
	for j0 := 0; j0 < n; j0 += nb {
		jb := min(nb, n-j0)
		switch {
		case uplo == Lower && j0+jb < n:
			rows := n - (j0 + jb)
			cv := c.View(j0+jb, j0, rows, jb)
			if t == NoTrans {
				Gemm(NoTrans, Trans, alpha, a.View(j0+jb, 0, rows, k), a.View(j0, 0, jb, k), beta, cv)
			} else {
				Gemm(Trans, NoTrans, alpha, a.View(0, j0+jb, k, rows), a.View(0, j0, k, jb), beta, cv)
			}
		case uplo == Upper && j0 > 0:
			cv := c.View(0, j0, j0, jb)
			if t == NoTrans {
				Gemm(NoTrans, Trans, alpha, a.View(0, 0, j0, k), a.View(j0, 0, jb, k), beta, cv)
			} else {
				Gemm(Trans, NoTrans, alpha, a.View(0, 0, k, j0), a.View(0, j0, k, jb), beta, cv)
			}
		}
		syrkDiag(uplo, t, alpha, a, beta, c, j0, jb, k)
	}
}

// syrkDiag updates the jb×jb diagonal block of C anchored at (j0, j0). For
// t == NoTrans the block's rows of A are first gathered into a contiguous
// row-major scratch, so the inner products run over unit-stride slices
// instead of strided At walks.
func syrkDiag[T dense.Float](uplo Uplo, t Transpose, alpha T, a *dense.Matrix[T], beta T, c *dense.Matrix[T], j0, jb, k int) {
	if t == Trans {
		for j := 0; j < jb; j++ {
			cj := c.Col(j0 + j)
			aj := a.Col(j0 + j)
			lo, hi := diagRange(uplo, j, jb)
			for i := lo; i < hi; i++ {
				s := T(alpha * Dot(a.Col(j0+i), aj))
				if beta == 0 {
					cj[j0+i] = s
				} else {
					cj[j0+i] = T(beta*cj[j0+i]) + s
				}
			}
		}
		return
	}
	pb := getPackBuf[T]()
	buf := pb.growA(jb * k)
	for l := 0; l < k; l++ {
		src := a.Col(l)
		for r := 0; r < jb; r++ {
			buf[r*k+l] = src[j0+r]
		}
	}
	for j := 0; j < jb; j++ {
		cj := c.Col(j0 + j)
		rowj := buf[j*k : (j+1)*k]
		lo, hi := diagRange(uplo, j, jb)
		for i := lo; i < hi; i++ {
			s := T(alpha * Dot(buf[i*k:(i+1)*k], rowj))
			if beta == 0 {
				cj[j0+i] = s
			} else {
				cj[j0+i] = T(beta*cj[j0+i]) + s
			}
		}
	}
	putPackBuf(pb)
}

// diagRange returns the in-block row range [lo, hi) of a diagonal block
// column that lies inside the stored triangle.
func diagRange(uplo Uplo, j, jb int) (lo, hi int) {
	if uplo == Upper {
		return 0, j + 1
	}
	return j, jb
}

// FillSymmetric mirrors the triangle selected by uplo into the other half,
// producing a fully stored symmetric matrix.
func FillSymmetric[T dense.Float](uplo Uplo, c *dense.Matrix[T]) {
	n := c.Rows
	if c.Cols != n {
		panic("blas: FillSymmetric requires a square matrix")
	}
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			if uplo == Upper {
				c.Set(j, i, c.At(i, j))
			} else {
				c.Set(i, j, c.At(j, i))
			}
		}
	}
}

// Trsm solves a triangular system with multiple right-hand sides in place:
// op(A)·X = α·B (side == Left) or X·op(A) = α·B (side == Right), overwriting
// B with X. The right-side sweep is blocked: cross-block dependencies are
// applied as packed-kernel GEMM updates and only the nb×nb diagonal systems
// run the scalar column sweep.
func Trsm[T dense.Float](side Side, uplo Uplo, tA Transpose, diag Diag, alpha T, a *dense.Matrix[T], b *dense.Matrix[T]) {
	n := a.Rows
	if a.Cols != n {
		panic("blas: trsm requires a square triangular factor")
	}
	if side == Left && b.Rows != n {
		panic(fmt.Sprintf("blas: trsm left dimension mismatch A=%d B rows=%d", n, b.Rows))
	}
	if side == Right && b.Cols != n {
		panic(fmt.Sprintf("blas: trsm right dimension mismatch A=%d B cols=%d", n, b.Cols))
	}
	if side == Left {
		parallelRange(b.Cols, 4, func(j0, j1 int) {
			for j := j0; j < j1; j++ {
				col := b.Col(j)
				if alpha != 1 {
					Scal(alpha, col)
				}
				Trsv(uplo, tA, diag, a, col)
			}
		})
		return
	}
	if alpha != 1 {
		for j := 0; j < b.Cols; j++ {
			Scal(alpha, b.Col(j))
		}
	}
	const nb = 64
	m := b.Rows
	forward := (uplo == Upper) == (tA == NoTrans)
	if forward {
		for j0 := 0; j0 < n; j0 += nb {
			jb := min(nb, n-j0)
			if j0 > 0 {
				bj := b.View(0, j0, m, jb)
				solved := b.View(0, 0, m, j0)
				if tA == NoTrans {
					Gemm(NoTrans, NoTrans, -1, solved, a.View(0, j0, j0, jb), 1, bj)
				} else {
					Gemm(NoTrans, Trans, -1, solved, a.View(j0, 0, jb, j0), 1, bj)
				}
			}
			trsmRightUnblocked(tA, diag, a.View(j0, j0, jb, jb), b.View(0, j0, m, jb), true)
		}
		return
	}
	blocks := (n + nb - 1) / nb
	for bi := blocks - 1; bi >= 0; bi-- {
		j0 := bi * nb
		jb := min(nb, n-j0)
		if j1 := j0 + jb; j1 < n {
			bj := b.View(0, j0, m, jb)
			solved := b.View(0, j1, m, n-j1)
			if tA == NoTrans {
				Gemm(NoTrans, NoTrans, -1, solved, a.View(j1, j0, n-j1, jb), 1, bj)
			} else {
				Gemm(NoTrans, Trans, -1, solved, a.View(j0, j1, jb, n-j1), 1, bj)
			}
		}
		trsmRightUnblocked(tA, diag, a.View(j0, j0, jb, jb), b.View(0, j0, b.Rows, jb), false)
	}
}

// trsmRightUnblocked solves X·op(A) = B in place for one triangular diagonal
// block, sweeping columns forward or backward with cross-column axpys.
func trsmRightUnblocked[T dense.Float](tA Transpose, diag Diag, a, b *dense.Matrix[T], forward bool) {
	n := a.Rows
	coef := func(l, j int) T { // coefficient of X[:,l] in equation for column j
		if tA == NoTrans {
			return a.At(l, j)
		}
		return a.At(j, l)
	}
	if forward {
		for j := 0; j < n; j++ {
			bj := b.Col(j)
			for l := 0; l < j; l++ {
				Axpy(-coef(l, j), b.Col(l), bj)
			}
			if diag == NonUnit {
				Scal(1/a.At(j, j), bj)
			}
		}
		return
	}
	for j := n - 1; j >= 0; j-- {
		bj := b.Col(j)
		for l := j + 1; l < n; l++ {
			Axpy(-coef(l, j), b.Col(l), bj)
		}
		if diag == NonUnit {
			Scal(1/a.At(j, j), bj)
		}
	}
}
