package blas

import (
	"math"

	"tcqr/internal/dense"
)

// abs is |v| without a branch: on fresh data "if v < 0 { v = -v }" is a coin
// flip per element, and the mispredicts cost more than the scan. The detour
// through float64 is exact in both precisions, so the scans below return the
// bits the branching form did — except that a NaN result may differ in sign.
func abs[T dense.Float](v T) T { return T(math.Abs(float64(v))) }

// Dot returns xᵀy accumulated in the native precision.
func Dot[T dense.Float](x, y []T) T {
	if len(x) != len(y) {
		panic("blas: dot length mismatch")
	}
	var s T
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Nrm2 returns ‖x‖₂ with scaling against overflow, in the native precision.
func Nrm2[T dense.Float](x []T) T {
	var scale, ssq T = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * T(math.Sqrt(float64(ssq)))
}

// Axpy computes y ← αx + y.
func Axpy[T dense.Float](alpha T, x, y []T) {
	if len(x) != len(y) {
		panic("blas: axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scal computes x ← αx.
func Scal[T dense.Float](alpha T, x []T) {
	for i := range x {
		x[i] *= alpha
	}
}
