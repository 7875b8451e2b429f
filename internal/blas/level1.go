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
		s += T(v * y[i])
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
			ssq = 1 + T(ssq*r*r)
			scale = a
		} else {
			r := a / scale
			ssq += T(r * r)
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
		y[i] += T(alpha * v)
	}
}

// Scal computes x ← αx.
func Scal[T dense.Float](alpha T, x []T) {
	for i := range x {
		x[i] *= alpha
	}
}

// ScalTo computes y ← αx, Scal's product, leaving x as it is. In float32 on
// an AVX2 host scaleF32 computes it eight elements at a time.
func ScalTo[T dense.Float](alpha T, x, y []T) {
	if len(x) != len(y) {
		panic("blas: scalto length mismatch")
	}
	if x32, ok := any(x).([]float32); ok && useVectorLevel2 && len(x) > 0 {
		scaleF32(len(x), &x32[0], float32(alpha), &any(y).([]float32)[0])
		return
	}
	for i, v := range x {
		y[i] = v * alpha
	}
}

// Amax returns the largest |x[i]|, from +0 and skipping NaN (+0 for an
// empty or all-NaN x). In float32 on an AVX2 host amaxF32 takes the
// multiples of eight: a maximum of values that are not NaN does not depend on
// the order it is taken in, so the bits are the loop's.
func Amax[T dense.Float](x []T) T {
	var mx T
	if x32, ok := any(x).([]float32); ok && useVectorLevel2 && len(x) >= 8 {
		n := len(x) &^ 7
		mx = T(amaxF32(n, &x32[0]))
		x = x[n:]
	}
	for _, v := range x {
		if a := abs(v); a > mx {
			mx = a
		}
	}
	return mx
}
