package blas

import (
	"fmt"

	"tcqr/internal/dense"
)

// Gemv computes y ← α·op(A)·x + β·y. A float64 product on a large enough A
// is split into chunks of y that the caller and parked helpers share
// (gemvParallel), with the bits of the serial product.
func Gemv[T dense.Float](tA Transpose, alpha T, a *dense.Matrix[T], x []T, beta T, y []T) {
	r, c := opShape(tA, a)
	if len(x) != c || len(y) != r {
		panic(fmt.Sprintf("blas: gemv shapes op(A)=%dx%d x=%d y=%d", r, c, len(x), len(y)))
	}
	if beta == 0 {
		for i := range y {
			y[i] = 0
		}
	} else if beta != 1 {
		Scal(beta, y)
	}
	if alpha == 0 {
		return
	}
	if a64, ok := any(a).(*dense.M64); ok {
		if chunk, helpers := gemvSplit(tA, a.Rows, a.Cols); helpers > 0 {
			gemvParallel(tA, float64(alpha), a64, any(x).([]float64), any(y).([]float64), chunk, helpers)
			return
		}
	}
	if tA == NoTrans {
		gemvN(alpha, a, x, y)
		return
	}
	gemvT(alpha, a, x, y)
}

// window is a.View(i, j, r, c) by value, for handing part of a matrix back
// to a Go loop without allocating. Element (i, j) must exist, or i = j = 0.
func window[T dense.Float](a *dense.Matrix[T], i, j, r, c int) dense.Matrix[T] {
	return dense.Matrix[T]{Rows: r, Cols: c, Stride: a.Stride, Data: a.Data[i+j*a.Stride:]}
}

// gemvN computes y += α·A·x. In float64 on an AVX2 host the whole multiples
// of eight columns go through gemvN8F64, which folds eight column updates
// into one pass over y — per y[i] the additions of two successive four-column
// blocks of gemvNoTrans. Everything else is handed back to gemvNoTrans on a
// window whose first column is a multiple of eight, so its blocks fall where
// they would on the whole matrix: the column tail, the rows the kernel did
// not store (the row tail, and everything from the first NaN result on), and
// any eight columns holding a zero coefficient, since gemvNoTrans skips such
// a column and adding v·0 is not a no-op.
func gemvN[T dense.Float](alpha T, a *dense.Matrix[T], x, y []T) {
	j := 0
	if a64, ok := any(a).(*dense.M64); ok && useVectorLevel2 && a.Rows >= 4 {
		j = gemvNoTransF64(float64(alpha), a64, any(x).([]float64), any(y).([]float64))
	}
	if j < a.Cols {
		tail := window(a, 0, j, a.Rows, a.Cols-j)
		gemvNoTrans(alpha, &tail, x[j:], y)
	}
}

// gemvNoTransF64 is the vector part of gemvN: it consumes the whole multiples
// of eight columns of a, which has at least four rows, and returns how many
// columns that was.
func gemvNoTransF64(alpha float64, a *dense.M64, x, y []float64) int {
	j := 0
	for ; j+8 <= a.Cols; j += 8 {
		var coef [8]float64
		zero := false
		for k := range coef {
			coef[k] = alpha * x[j+k]
			zero = zero || coef[k] == 0
		}
		done := 0
		if !zero {
			done = gemvN8F64(a.Rows, &a.Data[j*a.Stride], a.Stride, &coef, &y[0])
		}
		if done < a.Rows {
			rest := window(a, done, j, a.Rows-done, 8)
			gemvNoTrans(alpha, &rest, x[j:j+8], y[done:])
		}
	}
	return j
}

// gemvT computes y += α·Aᵀ·x. On an AVX2 host the whole multiples of eight
// columns go through gemvT8F64 / gemvT8F32 — eight of gemvTrans's sequential
// dot products at once, columns in the lanes — and gemvTrans takes the
// remaining columns and any eight whose result holds a NaN.
func gemvT[T dense.Float](alpha T, a *dense.Matrix[T], x, y []T) {
	j := 0
	if useVectorLevel2 && a.Rows > 0 {
		for ; j+8 <= a.Cols; j += 8 {
			ok := false
			switch a := any(a).(type) {
			case *dense.M64:
				ok = gemvT8F64(a.Rows, &a.Data[j*a.Stride], a.Stride, &any(x).([]float64)[0], float64(alpha), &any(y).([]float64)[j])
			case *dense.M32:
				ok = gemvT8F32(a.Rows, &a.Data[j*a.Stride], a.Stride, &any(x).([]float32)[0], float32(alpha), &any(y).([]float32)[j])
			}
			if !ok {
				blk := window(a, 0, j, a.Rows, 8)
				gemvTrans(alpha, &blk, x, y[j:j+8])
			}
		}
	}
	if j < a.Cols {
		tail := window(a, 0, j, a.Rows, a.Cols-j)
		gemvTrans(alpha, &tail, x, y[j:])
	}
}

// gemvNoTrans computes y += α·A·x four columns at a time. The blocked inner
// loop folds four column updates into one pass over y, evaluated strictly
// left to right, so every y[i] sees exactly the same addition sequence as
// four successive single-column sweeps — results are bit-identical to the
// reference loop (the same policy the assembly GEMM kernels follow: more
// instruction-level parallelism, never a reassociated accumulation). A zero
// scaled coefficient falls back to per-column updates because the reference
// loop skips those columns entirely (adding v·0 is not a no-op for ±0 and
// non-finite v).
func gemvNoTrans[T dense.Float](alpha T, a *dense.Matrix[T], x, y []T) {
	j := 0
	for ; j+4 <= a.Cols; j += 4 {
		x0, x1, x2, x3 := alpha*x[j], alpha*x[j+1], alpha*x[j+2], alpha*x[j+3]
		if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
			gemvNoTransRef(alpha, a, x[j:j+4], y, j)
			continue
		}
		c0 := a.Col(j)[:len(y)]
		c1 := a.Col(j + 1)[:len(y)]
		c2 := a.Col(j + 2)[:len(y)]
		c3 := a.Col(j + 3)[:len(y)]
		for i := range y {
			y[i] = y[i] + T(c0[i]*x0) + T(c1[i]*x1) + T(c2[i]*x2) + T(c3[i]*x3)
		}
	}
	gemvNoTransRef(alpha, a, x[j:], y, j)
}

// gemvNoTransRef is the reference column sweep over columns [j0, j0+len(xs)).
func gemvNoTransRef[T dense.Float](alpha T, a *dense.Matrix[T], xs, y []T, j0 int) {
	for k, xv := range xs {
		xj := alpha * xv
		if xj == 0 {
			continue
		}
		col := a.Col(j0 + k)
		for i, v := range col {
			y[i] += T(v * xj)
		}
	}
}

// gemvTrans computes y += α·Aᵀ·x four columns at a time: four independent
// dot-product accumulators share one pass over x. Each accumulator runs the
// same sequential sum as Dot(a.Col(j), x), so per-column results are
// bit-identical to the reference loop while the four independent chains hide
// the floating-point add latency that serializes a single running sum.
func gemvTrans[T dense.Float](alpha T, a *dense.Matrix[T], x, y []T) {
	j := 0
	for ; j+4 <= a.Cols; j += 4 {
		c0 := a.Col(j)[:len(x)]
		c1 := a.Col(j + 1)[:len(x)]
		c2 := a.Col(j + 2)[:len(x)]
		c3 := a.Col(j + 3)[:len(x)]
		var s0, s1, s2, s3 T
		for i, xv := range x {
			s0 += T(c0[i] * xv)
			s1 += T(c1[i] * xv)
			s2 += T(c2[i] * xv)
			s3 += T(c3[i] * xv)
		}
		y[j] += T(alpha * s0)
		y[j+1] += T(alpha * s1)
		y[j+2] += T(alpha * s2)
		y[j+3] += T(alpha * s3)
	}
	for ; j < a.Cols; j++ {
		y[j] += T(alpha * Dot(a.Col(j), x))
	}
}

// Ger computes A ← α·x·yᵀ + A.
func Ger[T dense.Float](alpha T, x, y []T, a *dense.Matrix[T]) {
	if len(x) != a.Rows || len(y) != a.Cols {
		panic(fmt.Sprintf("blas: ger shapes A=%dx%d x=%d y=%d", a.Rows, a.Cols, len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for j := 0; j < a.Cols; j++ {
		yj := alpha * y[j]
		if yj == 0 {
			continue
		}
		colUpdate(a.Col(j), x, yj)
	}
}

// colUpdate computes y[i] += x[i]·t for i < len(x), the column update under
// Ger and the column-sweep GEMM. In float32 on an AVX2 host colUpdateF32 takes
// the elements up to the tail, or up to the first NaN result; the Go loop
// takes the rest.
func colUpdate[T dense.Float](y, x []T, t T) {
	done := 0
	if x32, ok := any(x).([]float32); ok && useVectorLevel2 && len(x) >= 8 {
		y32 := any(y).([]float32)[:len(x)]
		done = colUpdateF32(len(x), &x32[0], float32(t), &y32[0])
	}
	y = y[done:]
	for i, v := range x[done:] {
		y[i] += T(v * t)
	}
}

// Trsv solves op(A)·x = b in place (x ← op(A)⁻¹·x) for a triangular A.
//
// The two cases on the refinement hot path — Upper/NoTrans back-substitution
// and Upper/Trans forward elimination, both run twice per CGLS iteration —
// use blocked kernels that are bit-identical to the reference sweeps (same
// policy as Gemv: fold work for ILP, never reassociate an accumulation).
func Trsv[T dense.Float](uplo Uplo, tA Transpose, diag Diag, a *dense.Matrix[T], x []T) {
	n := a.Rows
	if a.Cols != n {
		panic("blas: trsv requires a square matrix")
	}
	if len(x) != n {
		panic("blas: trsv vector length mismatch")
	}
	// Four effective cases; op(Upper)ᵀ behaves like Lower and vice versa.
	forward := (uplo == Lower) == (tA == NoTrans)
	if tA == NoTrans {
		if forward { // lower, forward substitution (column variant)
			for j := 0; j < n; j++ {
				if diag == NonUnit {
					x[j] /= a.At(j, j)
				}
				xj := x[j]
				if xj == 0 {
					continue
				}
				col := a.Col(j)
				for i := j + 1; i < n; i++ {
					x[i] -= col[i] * xj
				}
			}
		} else { // upper, backward substitution
			trsvUpperNoTrans(diag, a, x)
		}
		return
	}
	// Transposed cases use dot products along columns.
	if forward { // A upper, solving Aᵀx = b forward
		trsvUpperTrans(diag, a, x)
	} else { // A lower, solving Aᵀx = b backward
		for j := n - 1; j >= 0; j-- {
			col := a.Col(j)
			var s T
			for i := j + 1; i < n; i++ {
				s += col[i] * x[i]
			}
			x[j] -= s
			if diag == NonUnit {
				x[j] /= col[j]
			}
		}
	}
}

// trsvUpperNoTrans is blocked backward substitution for an upper triangular
// A. Four columns are finalized in the reference (descending) order inside a
// small corner, then their updates to the remaining prefix fold into one
// pass evaluated strictly left to right — every x[i] sees exactly the
// subtraction sequence of four successive reference column sweeps. A zero
// solved component falls back to per-column sweeps for its block, because
// the reference loop skips zero columns entirely. In float64 on an AVX2 host
// trsvUpperNoTransF64 solves instead.
func trsvUpperNoTrans[T dense.Float](diag Diag, a *dense.Matrix[T], x []T) {
	if a64, ok := any(a).(*dense.M64); ok && useVectorLevel2 {
		trsvUpperNoTransF64(diag, a64, any(x).([]float64))
		return
	}
	n := a.Rows
	j := n - 1
	for ; j >= 3; j -= 4 {
		c0 := a.Col(j) // columns in reference order: j, j-1, j-2, j-3
		c1 := a.Col(j - 1)
		c2 := a.Col(j - 2)
		c3 := a.Col(j - 3)
		// Corner: finalize the block's four components exactly as the
		// reference would, column by column in descending order.
		if diag == NonUnit {
			x[j] /= c0[j]
		}
		x0 := x[j]
		if x0 != 0 {
			x[j-1] -= c0[j-1] * x0
			x[j-2] -= c0[j-2] * x0
			x[j-3] -= c0[j-3] * x0
		}
		if diag == NonUnit {
			x[j-1] /= c1[j-1]
		}
		x1 := x[j-1]
		if x1 != 0 {
			x[j-2] -= c1[j-2] * x1
			x[j-3] -= c1[j-3] * x1
		}
		if diag == NonUnit {
			x[j-2] /= c2[j-2]
		}
		x2 := x[j-2]
		if x2 != 0 {
			x[j-3] -= c2[j-3] * x2
		}
		if diag == NonUnit {
			x[j-3] /= c3[j-3]
		}
		x3 := x[j-3]
		if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
			// The reference skips zero columns; replay them one at a time.
			for k, xv := range [4]T{x0, x1, x2, x3} {
				if xv == 0 {
					continue
				}
				col := a.Col(j - k)
				for i := 0; i < j-3; i++ {
					x[i] -= col[i] * xv
				}
			}
			continue
		}
		head := x[:j-3]
		for i := range head {
			head[i] = head[i] - c0[i]*x0 - c1[i]*x1 - c2[i]*x2 - c3[i]*x3
		}
	}
	for ; j >= 0; j-- {
		if diag == NonUnit {
			x[j] /= a.At(j, j)
		}
		xj := x[j]
		if xj == 0 {
			continue
		}
		col := a.Col(j)
		for i := 0; i < j; i++ {
			x[i] -= col[i] * xj
		}
	}
}

// trsvUpperTrans is blocked forward elimination for Aᵀx = b with A upper
// triangular. The reference computes one sequential dot per column — a
// single floating-point add chain whose latency nothing hides. Here four
// columns share one pass over the solved prefix with four independent
// accumulator chains; each chain then finishes inside the 4×4 corner in the
// same ascending element order, so every component is the bit-identical
// sequential dot of the reference loop. In float64 on an AVX2 host
// trsvUpperTransF64 solves instead.
func trsvUpperTrans[T dense.Float](diag Diag, a *dense.Matrix[T], x []T) {
	if a64, ok := any(a).(*dense.M64); ok && useVectorLevel2 {
		trsvUpperTransF64(diag, a64, any(x).([]float64))
		return
	}
	n := a.Rows
	j := 0
	for ; j+4 <= n; j += 4 {
		c0 := a.Col(j)
		c1 := a.Col(j + 1)
		c2 := a.Col(j + 2)
		c3 := a.Col(j + 3)
		var s0, s1, s2, s3 T
		head := x[:j]
		for i, xv := range head {
			s0 += c0[i] * xv
			s1 += c1[i] * xv
			s2 += c2[i] * xv
			s3 += c3[i] * xv
		}
		// Corner: each column's chain continues in ascending order over the
		// components solved within the block.
		x[j] -= s0
		if diag == NonUnit {
			x[j] /= c0[j]
		}
		s1 += c1[j] * x[j]
		x[j+1] -= s1
		if diag == NonUnit {
			x[j+1] /= c1[j+1]
		}
		s2 += c2[j] * x[j]
		s2 += c2[j+1] * x[j+1]
		x[j+2] -= s2
		if diag == NonUnit {
			x[j+2] /= c2[j+2]
		}
		s3 += c3[j] * x[j]
		s3 += c3[j+1] * x[j+1]
		s3 += c3[j+2] * x[j+2]
		x[j+3] -= s3
		if diag == NonUnit {
			x[j+3] /= c3[j+3]
		}
	}
	for ; j < n; j++ {
		col := a.Col(j)
		var s T
		for i := 0; i < j; i++ {
			s += col[i] * x[i]
		}
		x[j] -= s
		if diag == NonUnit {
			x[j] /= col[j]
		}
	}
}

// trsvUpperNoTransF64 is trsvUpperNoTrans with AVX2: eight columns j, j−1,
// …, j−7 per block, from the last column down. The corner solves the block's
// eight components in Go in reference order; gemvN8F64 then folds the eight
// column updates into one pass over the head x[0:j−7], with the columns
// walked by a negative stride and coefficients −x_k, since y + a·(−x) is
// y − a·x bit for bit. A zero component (the reference skips its column) or
// a NaN result hands the head rows to the Go loop, and the n mod 8 columns
// left at the front run the reference loop. Every loop in Go here has the
// reference's shape, so where two NaNs meet the same one survives.
func trsvUpperNoTransF64(diag Diag, a *dense.M64, x []float64) {
	j := a.Rows - 1
	for ; j >= 7; j -= 8 {
		lo := j - 7
		var xs, coef [8]float64
		zero := false
		for k := range xs {
			col := a.Col(j - k)
			if diag == NonUnit {
				x[j-k] /= col[j-k]
			}
			xk := x[j-k]
			xs[k], coef[k] = xk, -xk
			if xk == 0 {
				zero = true
				continue
			}
			for i := lo; i < j-k; i++ {
				x[i] -= col[i] * xk
			}
		}
		done := 0
		if !zero && lo >= 4 {
			done = gemvN8F64(lo, &a.Data[j*a.Stride], -a.Stride, &coef, &x[0])
		}
		for k, xk := range xs {
			if xk == 0 {
				continue
			}
			col := a.Col(j - k)
			for i := done; i < lo; i++ {
				x[i] -= col[i] * xk
			}
		}
	}
	for ; j >= 0; j-- {
		col := a.Col(j)
		if diag == NonUnit {
			x[j] /= col[j]
		}
		xj := x[j]
		if xj == 0 {
			continue
		}
		for i := 0; i < j; i++ {
			x[i] -= col[i] * xj
		}
	}
}

// trsvUpperTransF64 is trsvUpperTrans with AVX2: eight columns j…j+7 per
// block. gemvT8F64 computes their dot products with the solved head x[0:j],
// each the reference's sequential sum from +0 (which never reaches −0, so
// adding it to a zeroed y is exact); the corner continues each sum over the
// block's own components in Go in reference order. A NaN among the eight
// sums hands them to the Go loop, and the n mod 8 columns left at the end run
// the reference loop, all in the reference's shape as in
// trsvUpperNoTransF64.
func trsvUpperTransF64(diag Diag, a *dense.M64, x []float64) {
	n := a.Rows
	j := 0
	for ; j+8 <= n; j += 8 {
		var s [8]float64
		if j > 0 && !gemvT8F64(j, &a.Data[j*a.Stride], a.Stride, &x[0], 1, &s[0]) {
			for k := range s {
				col := a.Col(j + k)
				var sk float64
				for i := 0; i < j; i++ {
					sk += col[i] * x[i]
				}
				s[k] = sk
			}
		}
		for k, sk := range s {
			col := a.Col(j + k)
			for i := j; i < j+k; i++ {
				sk += col[i] * x[i]
			}
			x[j+k] -= sk
			if diag == NonUnit {
				x[j+k] /= col[j+k]
			}
		}
	}
	for ; j < n; j++ {
		col := a.Col(j)
		var s float64
		for i := 0; i < j; i++ {
			s += col[i] * x[i]
		}
		x[j] -= s
		if diag == NonUnit {
			x[j] /= col[j]
		}
	}
}

// Trmv computes x ← op(A)·x for a triangular A.
func Trmv[T dense.Float](uplo Uplo, tA Transpose, diag Diag, a *dense.Matrix[T], x []T) {
	n := a.Rows
	if a.Cols != n {
		panic("blas: trmv requires a square matrix")
	}
	if len(x) != n {
		panic("blas: trmv vector length mismatch")
	}
	if tA == NoTrans {
		if uplo == Upper {
			for i := 0; i < n; i++ {
				var s T
				if diag == Unit {
					s = x[i]
				} else {
					s = a.At(i, i) * x[i]
				}
				for j := i + 1; j < n; j++ {
					s += a.At(i, j) * x[j]
				}
				x[i] = s
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				var s T
				if diag == Unit {
					s = x[i]
				} else {
					s = a.At(i, i) * x[i]
				}
				for j := 0; j < i; j++ {
					s += a.At(i, j) * x[j]
				}
				x[i] = s
			}
		}
		return
	}
	if uplo == Upper { // Aᵀ with A upper acts lower: go backward
		for j := n - 1; j >= 0; j-- {
			col := a.Col(j)
			var s T
			if diag == Unit {
				s = x[j]
			} else {
				s = col[j] * x[j]
			}
			for i := 0; i < j; i++ {
				s += col[i] * x[i]
			}
			x[j] = s
		}
	} else {
		for j := 0; j < n; j++ {
			col := a.Col(j)
			var s T
			if diag == Unit {
				s = x[j]
			} else {
				s = col[j] * x[j]
			}
			for i := j + 1; i < n; i++ {
				s += col[i] * x[i]
			}
			x[j] = s
		}
	}
}
