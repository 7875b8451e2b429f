// Package gram implements the Gram-Schmidt orthogonalization kernels and
// the communication-avoiding QR (CAQR) panel factorization of Section 3.1.3
// of the paper, plus the Panel abstraction that lets the recursive QR choose
// its panel algorithm (the Figure 6 ablation: CAQR panel vs SGEQRF panel).
//
// On the GPU, the paper maps one 256×32 tile to one threadblock whose 256
// threads each own a row, runs the modified Gram-Schmidt entirely in shared
// memory (Algorithm 2), reduces the stacked R factors in a log₈(m/256)
// tree, and recovers the tile Q factors with one batched SGEMM (Eq. 8). The
// CPU version keeps that structure: each tile is copied out of the panel
// into a contiguous workspace (the shared memory) and factored there by the
// fused MGS tile kernel (blas.MGSTile), the tiles of a level run as tasks of
// the blas task runner (the threadblocks), the R tree is reduced
// recursively, and one batched GEMM writes the panel's Q from the tile
// copies — one pass over the panel per tree level, synchronization only
// between the tile tasks and the batched GEMM. The tree's workspace is laid
// out once per leaf shape and pooled across panel calls; nothing is
// allocated per tile.
package gram

import (
	"fmt"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
)

// MGS computes the modified Gram-Schmidt QR of a (m×n, m >= n) in place:
// on return a holds the orthonormal Q and r holds the upper-triangular R
// (r must be n×n; its strict lower triangle is zeroed). This is Algorithm 2
// of the paper, with the inner products of line 7 aggregated into a GEMV
// exactly like the CUDA kernel aggregates them into threadblock reductions.
// In float32, tiles up to blas.MGSTileMaxCols wide run on the fused tile
// kernel (blas.MGSTile) with the bits of the Go loop below, which stays as
// the fallback and the oracle.
//
// A numerically zero column yields a zero diagonal entry in R and a zero
// column in Q; callers that can encounter rank deficiency must check.
func MGS[T dense.Float](a *dense.Matrix[T], r *dense.Matrix[T]) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("gram: MGS requires m >= n, got %dx%d", m, n))
	}
	if r.Rows != n || r.Cols != n {
		panic("gram: MGS R must be n×n")
	}
	if a32, ok := any(a).(*dense.M32); ok {
		mgsTile(a32, a32, any(r).(*dense.M32), make([]float32, mgsWork(m, n)))
		return
	}
	r.Zero()
	mgsFrom(a, r, make([]T, n), 0, 0)
}

// mgsWork is the length of the work slice mgsTile needs for an m×n tile.
func mgsWork(m, n int) int {
	if n > blas.MGSTileMaxCols {
		return n
	}
	return n + blas.MGSTileWork(m)
}

// mgsTile is MGS of src into dst (src itself, or a matrix of its shape that
// does not overlap it) on at least mgsWork(m, n) elements of work: the tile
// kernel as far as it goes, then the Go loop from where it stopped.
func mgsTile(src, dst, r *dense.M32, work []float32) {
	n := src.Cols
	r.Zero()
	if k, j := blas.MGSTile(src, dst, r, work[n:]); k < n {
		mgsFrom(dst, r, work[:n], k, j)
	}
}

// mgsFrom is the Go loop of MGS, from step k: if j == k from its start, if
// j > k from trail column j, the norm and the scaling of column k done (the
// state blas.MGSTile hands back). rows holds n elements; r's strict lower
// triangle must be zero.
func mgsFrom[T dense.Float](a, r *dense.Matrix[T], rows []T, k, j int) {
	m, n := a.Rows, a.Cols
	for ; k < n; k, j = k+1, k+1 {
		qk := a.Col(k)
		if j == k {
			nrm := blas.Nrm2(qk)
			r.Set(k, k, nrm)
			if nrm == 0 {
				continue
			}
			blas.Scal(1/nrm, qk)
			j = k + 1
		}
		if k == n-1 {
			break
		}
		// R(k, j:n) = qkᵀ · A(:, j:n); A(:, j:n) -= qk · R(k, j:n). The trail
		// is a window by value: a.View would heap-allocate one per column.
		trail := dense.Matrix[T]{Rows: m, Cols: n - j, Stride: a.Stride, Data: a.Data[j*a.Stride:]}
		row := rows[:n-j]
		blas.Gemv(blas.Trans, 1, &trail, qk, 0, row)
		for i, v := range row {
			r.Set(k, j+i, v)
		}
		blas.Ger(-1, qk, row, &trail)
	}
}

// CGS computes the classical Gram-Schmidt QR of a in place. It is included
// for the Section 3.6 error-bound comparison: CGS loses orthogonality as
// κ(A)², MGS only as κ(A), and the recursive algorithm sits between the two.
func CGS[T dense.Float](a *dense.Matrix[T], r *dense.Matrix[T]) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("gram: CGS requires m >= n, got %dx%d", m, n))
	}
	if r.Rows != n || r.Cols != n {
		panic("gram: CGS R must be n×n")
	}
	r.Zero()
	for k := 0; k < n; k++ {
		ak := a.Col(k)
		if k > 0 {
			// R(0:k, k) = Q(:, 0:k)ᵀ·a_k, then a_k -= Q(:, 0:k)·R(0:k, k),
			// both against the ORIGINAL a_k (that is what makes it CGS).
			head := dense.Matrix[T]{Rows: m, Cols: k, Stride: a.Stride, Data: a.Data}
			rk := r.Col(k)[:k]
			blas.Gemv(blas.Trans, 1, &head, ak, 0, rk)
			blas.Gemv(blas.NoTrans, -1, &head, rk, 1, ak)
		}
		nrm := blas.Nrm2(ak)
		r.Set(k, k, nrm)
		if nrm != 0 {
			blas.Scal(1/nrm, ak)
		}
	}
}
