package main

import (
	"math"
	"sort"

	"tcqr"
)

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between closest ranks; NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median sorts a copy of v and returns its 50th percentile.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quartileSpread is the distance between the first and third quartile of v
// as a share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method) — the same
// statistic the acceptance check applies to ten runs.
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := percentile(s, 50)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// solveDigits is -log10 of the scaled normal-equations residual of x as a
// least squares solution of (a, b), evaluated in float64 with plain loops
// that share no code with the library under test:
//
//	‖Aᵀ(Ax−b)‖₂ / (‖A‖_F²‖x‖₂ + ‖A‖_F‖b‖₂)
//
// The quantity is invariant under row permutations of (A, b). An exact
// zero gradient reads as 17 digits.
func solveDigits(a *tcqr.Matrix, x, b []float64) float64 {
	if len(x) != a.Cols || len(b) != a.Rows {
		return math.Inf(-1)
	}
	r := make([]float64, a.Rows)
	for i, v := range b {
		r[i] = -v
	}
	var fro2 float64
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		for i, v := range a.Col(j) {
			r[i] += v * xj
			fro2 += v * v
		}
	}
	var g2 float64
	for j := 0; j < a.Cols; j++ {
		var s float64
		for i, v := range a.Col(j) {
			s += v * r[i]
		}
		g2 += s * s
	}
	den := fro2*norm2(x) + math.Sqrt(fro2)*norm2(b)
	ratio := math.Sqrt(g2) / den
	if math.IsNaN(ratio) {
		return math.Inf(-1)
	}
	if ratio == 0 {
		return 17
	}
	return -math.Log10(ratio)
}

func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
