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
// into one pass over y — per y[i] the additions of eight successive column
// sweeps of gemvNoTrans. Everything else is handed back to gemvNoTrans on a
// window: the column tail, the rows the kernel did not store (the row tail,
// and everything from the first NaN result on), and any eight columns
// holding a zero coefficient, since gemvNoTrans skips such a column and
// adding v·0 is not a no-op.
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

// gemvNoTrans computes y += α·A·x one column sweep at a time. A column
// whose scaled coefficient is zero is skipped: adding v·0 is not a no-op for
// ±0 and non-finite v.
func gemvNoTrans[T dense.Float](alpha T, a *dense.Matrix[T], x, y []T) {
	for j, xv := range x {
		xj := alpha * xv
		if xj == 0 {
			continue
		}
		for i, v := range a.Col(j)[:len(y)] {
			y[i] += T(v * xj)
		}
	}
}

// gemvTrans computes y += α·Aᵀ·x, one sequential dot product per column.
func gemvTrans[T dense.Float](alpha T, a *dense.Matrix[T], x, y []T) {
	for j := 0; j < a.Cols; j++ {
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
// A may be narrower than x: a float32 A under a float64 x is how the
// refinement applies a float32 R. Each element of A is widened to x's
// precision as it is loaded, and that widening is exact, so the result is
// Trsv on the float64 copy of A, bit for bit, without the copy. A float64 A
// under a float32 x panics.
//
// The two cases on the refinement hot path — Upper/NoTrans back-substitution
// and Upper/Trans forward elimination, both run twice per CGLS iteration —
// go through trsvUpperNoTransF64 / trsvUpperTransF64 for a float64 x on an
// AVX2 host, and through the Go loops trsvUpperNoTrans / trsvUpperTrans
// otherwise, with the same bits.
func Trsv[A, T dense.Float](uplo Uplo, tA Transpose, diag Diag, a *dense.Matrix[A], x []T) {
	n := a.Rows
	if a.Cols != n {
		panic("blas: trsv requires a square matrix")
	}
	if len(x) != n {
		panic("blas: trsv vector length mismatch")
	}
	x64, vector := any(x).([]float64)
	if _, a64 := any(a).(*dense.M64); a64 && !vector {
		panic("blas: trsv of a float64 matrix on a float32 vector")
	}
	vector = vector && useVectorLevel2
	// Four effective cases; op(Upper)ᵀ behaves like Lower and vice versa.
	forward := (uplo == Lower) == (tA == NoTrans)
	switch {
	case tA == NoTrans && forward: // lower, forward substitution (column variant)
		for j := 0; j < n; j++ {
			col := a.Col(j)
			if diag == NonUnit {
				x[j] /= T(col[j])
			}
			xj := x[j]
			if xj == 0 {
				continue
			}
			for i := j + 1; i < n; i++ {
				x[i] -= T(T(col[i]) * xj)
			}
		}
	case tA == NoTrans && vector: // upper, backward substitution
		trsvUpperNoTransF64(diag, a, x64)
	case tA == NoTrans:
		trsvUpperNoTrans(diag, a, x)
	case forward && vector: // A upper, solving Aᵀx = b forward
		trsvUpperTransF64(diag, a, x64)
	case forward:
		trsvUpperTrans(diag, a, x)
	default: // A lower, solving Aᵀx = b backward, by dot products along columns
		for j := n - 1; j >= 0; j-- {
			col := a.Col(j)
			x[j] -= dotWiden(col[j+1:], x[j+1:])
			if diag == NonUnit {
				x[j] /= T(col[j])
			}
		}
	}
}

// dotWiden is Dot with each element of a widened to x's precision as it is
// loaded: the same sequential sum, so on a float64 a it is Dot.
func dotWiden[A, T dense.Float](a []A, x []T) T {
	var s T
	for i, v := range a {
		s += T(T(v) * x[i])
	}
	return s
}

// trsvUpperNoTrans is backward substitution for an upper triangular A, one
// column sweep at a time from the last: x[j] is solved, then its column
// leaves the head x[0:j]. A zero component's column is skipped, as in
// gemvNoTrans.
func trsvUpperNoTrans[A, T dense.Float](diag Diag, a *dense.Matrix[A], x []T) {
	for j := a.Rows - 1; j >= 0; j-- {
		col := a.Col(j)
		if diag == NonUnit {
			x[j] /= T(col[j])
		}
		xj := x[j]
		if xj == 0 {
			continue
		}
		for i, v := range col[:j] {
			x[i] -= T(T(v) * xj)
		}
	}
}

// trsvUpperTrans is forward elimination for Aᵀx = b with A upper triangular:
// x[j] loses the sequential dot product of its column with the solved head
// x[0:j], as in gemvTrans.
func trsvUpperTrans[A, T dense.Float](diag Diag, a *dense.Matrix[A], x []T) {
	for j := 0; j < a.Rows; j++ {
		col := a.Col(j)
		x[j] -= dotWiden(col[:j], x[:j])
		if diag == NonUnit {
			x[j] /= T(col[j])
		}
	}
}

// trsvUpperNoTransF64 is trsvUpperNoTrans with AVX2: eight columns j, j−1,
// …, j−7 per block, from the last column down. The corner solves the block's
// eight components in Go in reference order; gemvN8 then folds the eight
// column updates into one pass over the head x[0:j−7], with the columns
// walked by a negative stride and coefficients −x_k, since y + a·(−x) is
// y − a·x bit for bit. A zero component (the reference skips its column) or
// a NaN result hands the head rows to the Go loop, and the n mod 8 columns
// left at the front run the reference loop. Every loop in Go here has the
// reference's shape, so where two NaNs meet the same one survives.
func trsvUpperNoTransF64[A dense.Float](diag Diag, a *dense.Matrix[A], x []float64) {
	j := a.Rows - 1
	for ; j >= 7; j -= 8 {
		lo := j - 7
		var xs, coef [8]float64
		zero := false
		for k := range xs {
			col := a.Col(j - k)
			if diag == NonUnit {
				x[j-k] /= float64(col[j-k])
			}
			xk := x[j-k]
			xs[k], coef[k] = xk, -xk
			if xk == 0 {
				zero = true
				continue
			}
			for i := lo; i < j-k; i++ {
				x[i] -= float64(float64(col[i]) * xk)
			}
		}
		done := 0
		if !zero && lo >= 4 {
			done = gemvN8(lo, &a.Data[j*a.Stride], -a.Stride, &coef, &x[0])
		}
		for k, xk := range xs {
			if xk == 0 {
				continue
			}
			col := a.Col(j - k)
			for i := done; i < lo; i++ {
				x[i] -= float64(float64(col[i]) * xk)
			}
		}
	}
	for ; j >= 0; j-- {
		col := a.Col(j)
		if diag == NonUnit {
			x[j] /= float64(col[j])
		}
		xj := x[j]
		if xj == 0 {
			continue
		}
		for i := 0; i < j; i++ {
			x[i] -= float64(float64(col[i]) * xj)
		}
	}
}

// trsvUpperTransF64 is trsvUpperTrans with AVX2: eight columns j…j+7 per
// block. gemvT8 computes their dot products with the solved head x[0:j],
// each the reference's sequential sum from +0 (which never reaches −0, so
// adding it to a zeroed y is exact); the corner continues each sum over the
// block's own components in Go in reference order. A NaN among the eight
// sums hands them to the Go loop, and the n mod 8 columns left at the end run
// the reference loop, all in the reference's shape as in
// trsvUpperNoTransF64.
func trsvUpperTransF64[A dense.Float](diag Diag, a *dense.Matrix[A], x []float64) {
	n := a.Rows
	j := 0
	for ; j+8 <= n; j += 8 {
		var s [8]float64
		if j > 0 && !gemvT8(j, &a.Data[j*a.Stride], a.Stride, &x[0], &s) {
			for k := range s {
				col := a.Col(j + k)
				var sk float64
				for i := 0; i < j; i++ {
					sk += float64(float64(col[i]) * x[i])
				}
				s[k] = sk
			}
		}
		for k, sk := range s {
			col := a.Col(j + k)
			for i := j; i < j+k; i++ {
				sk += float64(float64(col[i]) * x[i])
			}
			x[j+k] -= sk
			if diag == NonUnit {
				x[j+k] /= float64(col[j+k])
			}
		}
	}
	for ; j < n; j++ {
		col := a.Col(j)
		var s float64
		for i := 0; i < j; i++ {
			s += float64(float64(col[i]) * x[i])
		}
		x[j] -= s
		if diag == NonUnit {
			x[j] /= float64(col[j])
		}
	}
}

// gemvN8 is gemvN8F64 on the columns that start at a, or gemvN8Wide when a
// is float32.
func gemvN8[A dense.Float](rows int, a *A, stride int, coef *[8]float64, y *float64) int {
	if a32, ok := any(a).(*float32); ok {
		return gemvN8Wide(rows, a32, stride, coef, y)
	}
	return gemvN8F64(rows, any(a).(*float64), stride, coef, y)
}

// gemvT8 stores in s the eight sequential dot products of x with the columns
// that start at a, through gemvT8F64, or gemvT8Wide when a is float32, and
// reports false, storing nothing, if one of them is NaN. s must be zero.
func gemvT8[A dense.Float](rows int, a *A, stride int, x *float64, s *[8]float64) bool {
	if a32, ok := any(a).(*float32); ok {
		return gemvT8Wide(rows, a32, stride, x, 1, &s[0])
	}
	return gemvT8F64(rows, any(a).(*float64), stride, x, 1, &s[0])
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
					s = T(a.At(i, i) * x[i])
				}
				for j := i + 1; j < n; j++ {
					s += T(a.At(i, j) * x[j])
				}
				x[i] = s
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				var s T
				if diag == Unit {
					s = x[i]
				} else {
					s = T(a.At(i, i) * x[i])
				}
				for j := 0; j < i; j++ {
					s += T(a.At(i, j) * x[j])
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
				s = T(col[j] * x[j])
			}
			for i := 0; i < j; i++ {
				s += T(col[i] * x[i])
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
				s = T(col[j] * x[j])
			}
			for i := j + 1; i < n; i++ {
				s += T(col[i] * x[i])
			}
			x[j] = s
		}
	}
}
