// Package gram implements the Gram-Schmidt orthogonalization kernels and
// the communication-avoiding QR (CAQR) panel factorization of Section 3.1.3
// of the paper, plus the Panel abstraction that lets the recursive QR choose
// its panel algorithm (the Figure 6 ablation: CAQR panel vs SGEQRF panel).
//
// On the GPU, the paper maps one 256×32 tile to one threadblock whose 256
// threads each own a row, runs the modified Gram-Schmidt entirely in shared
// memory (Algorithm 2), reduces the stacked R factors in a log₈(m/256)
// tree, and recovers the tile Q factors with one batched SGEMM (Eq. 8). The
// simulator preserves that structure: tiles are factored by concurrent
// goroutines (the threadblocks), the R tree is reduced recursively, and the
// Q assembly goes through the batched GEMM of the compute engine, so the
// communication pattern being modelled — one global-memory pass per tree
// level, synchronization only at the batched GEMM — is visible in the code.
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
	r.Zero()
	rows := make([]T, n)
	for k := 0; k < n; k++ {
		qk := a.Col(k)
		nrm := blas.Nrm2(qk)
		r.Set(k, k, nrm)
		if nrm == 0 {
			continue
		}
		blas.Scal(1/nrm, qk)
		if k == n-1 {
			break
		}
		// R(k, k+1:n) = qkᵀ · A(:, k+1:n); A(:, k+1:n) -= qk · R(k, k+1:n).
		// The trail is a window by value: a.View would heap-allocate one per
		// column.
		trail := dense.Matrix[T]{Rows: m, Cols: n - k - 1, Stride: a.Stride, Data: a.Data[(k+1)*a.Stride:]}
		row := rows[:n-k-1]
		blas.Gemv(blas.Trans, 1, &trail, qk, 0, row)
		for j, v := range row {
			r.Set(k, k+1+j, v)
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
