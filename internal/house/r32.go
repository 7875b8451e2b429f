package house

import (
	"errors"
	"fmt"
	"math"

	"tcqr/internal/dense"
)

// ErrUnusableR reports an R that R32 refuses: rounded to float32 it has a
// non-finite element or a zero on its diagonal, so it cannot precondition a
// solve.
var ErrUnusableR = errors.New("house: R has a non-finite element or a zero diagonal in float32")

// R32 returns the triangular factor of a's float64 Householder QR (Geqrf,
// the DGEQRF baseline) rounded to float32: the preconditioner whose bound
// RGSQRF's R lacks. Each row whose diagonal Geqrf left negative is negated
// first, which is the same factorization with Q's column negated, so R has
// RGSQRF's positive diagonal, the sign convention internal/qrupdate expects.
// a (m×n, m ≥ n ≥ 1, any stride) is not modified. An R with an element that
// is not finite in float32, or a diagonal element that rounds to zero, is
// refused with an error wrapping ErrUnusableR.
func R32(a *dense.M64) (*dense.M32, error) {
	m, n := a.Rows, a.Cols
	if n < 1 || m < n {
		return nil, fmt.Errorf("house: R32 needs m >= n >= 1, got %dx%d", m, n)
	}
	w := a.Clone()
	Geqrf(w, 0)
	neg := make([]bool, n)
	for i := range neg {
		neg[i] = w.At(i, i) < 0
	}
	r := dense.New[float32](n, n)
	for j := 0; j < n; j++ {
		src, dst := w.Col(j)[:j+1], r.Col(j)
		for i, v := range src {
			if neg[i] {
				v = -v
			}
			x := float32(v)
			if math.IsInf(float64(x), 0) || x != x {
				return nil, fmt.Errorf("%w: R[%d,%d] = %g", ErrUnusableR, i, j, v)
			}
			dst[i] = x
		}
		if dst[j] == 0 {
			return nil, fmt.Errorf("%w: R[%d,%d] = %g", ErrUnusableR, j, j, src[j])
		}
	}
	return r, nil
}
