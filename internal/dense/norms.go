package dense

import "math"

// NormFro returns the Frobenius norm of m, accumulating in float64 with
// scaling to avoid overflow for large well-scaled matrices.
func NormFro[T Float](m *Matrix[T]) float64 {
	var scale, ssq float64 = 0, 1
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			x := math.Abs(float64(v))
			if x == 0 {
				continue
			}
			if scale < x {
				r := scale / x
				ssq = 1 + float64(ssq*r*r)
				scale = x
			} else {
				r := x / scale
				ssq += float64(r * r)
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormMax returns the largest absolute element of m.
func NormMax[T Float](m *Matrix[T]) float64 {
	var best float64
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			x := math.Abs(float64(v))
			if x > best {
				best = x
			}
		}
	}
	return best
}

// Norm2Est estimates the spectral norm ‖m‖₂ by power iteration on mᵀm,
// accumulating in float64. iters controls the number of power steps; 30 is
// plenty for the error metrics used in the experiments (the estimate is used
// only as a normalizer).
func Norm2Est[T Float](m *Matrix[T], iters int) float64 {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	v := make([]float64, m.Cols)
	for i := range v {
		// Deterministic, non-degenerate start vector.
		v[i] = 1 + 1/float64(i+2)
	}
	u := make([]float64, m.Rows)
	var sigma float64
	for it := 0; it < iters; it++ {
		// u = M v
		for i := range u {
			u[i] = 0
		}
		for j := 0; j < m.Cols; j++ {
			vj := v[j]
			if vj == 0 {
				continue
			}
			col := m.Col(j)
			for i, a := range col {
				u[i] += float64(a) * vj
			}
		}
		nu := nrm2(u)
		if nu == 0 {
			return 0
		}
		for i := range u {
			u[i] /= nu
		}
		// v = Mᵀ u
		for j := 0; j < m.Cols; j++ {
			col := m.Col(j)
			var s float64
			for i, a := range col {
				s += float64(a) * u[i]
			}
			v[j] = s
		}
		sigma = nrm2(v)
		if sigma == 0 {
			return 0
		}
		for i := range v {
			v[i] /= sigma
		}
	}
	return sigma
}

func nrm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}
