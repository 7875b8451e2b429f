package main

import (
	"hash/fnv"
	"math"
	"math/rand"

	"tcqr"
	"tcqr/internal/matgen"
)

// Every input is a pure function of (seed, stream name): the program under
// test receives only the generated matrices and vectors, never the seed.

// workloadCond is the condition number of every workload matrix: a
// geometric spectrum from 1 down to 1e-3, well inside the range where the
// fp16 factorization is a good preconditioner (paper Figure 8).
const workloadCond = 1e3

// rngFor derives an independent generator per named input stream, so adding
// a stream never shifts the values of another.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// condMatrix is an m×n matrix with Haar singular vectors and the workload
// spectrum.
func condMatrix(rng *rand.Rand, m, n int) *tcqr.Matrix {
	return matgen.WithCond(rng, m, n, workloadCond, matgen.Geometric)
}

// normalVec is n standard normal values.
func normalVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// normalMatrix is an m×n matrix of standard normal values scaled by s.
func normalMatrix(rng *rand.Rand, m, n int, s float64) *tcqr.Matrix {
	a := matgen.Normal(rng, m, n)
	a.Scale(s)
	return a
}

// rotateRows writes P·src into dst, where row i of P·src is row (i+r) mod m
// of src. A row permutation changes every byte of the body (so the content
// hash differs) but neither the spectrum nor the least squares solution.
func rotateRows(dst, src *tcqr.Matrix, r int) {
	for j := 0; j < src.Cols; j++ {
		rotateVec(dst.Col(j), src.Col(j), r)
	}
}

// rotateVec writes the rotation of src by r into dst: dst[i] = src[(i+r) mod n].
func rotateVec(dst, src []float64, r int) {
	n := len(src)
	r %= n
	copy(dst, src[r:])
	copy(dst[n-r:], src[:r])
}

// stackRows returns [top; bottom].
func stackRows(top, bottom *tcqr.Matrix) *tcqr.Matrix {
	out := tcqr.NewMatrix(top.Rows+bottom.Rows, top.Cols)
	for j := 0; j < top.Cols; j++ {
		c := out.Col(j)
		copy(c, top.Col(j))
		copy(c[top.Rows:], bottom.Col(j))
	}
	return out
}

// elementRMS is the root mean square of a's elements. Rows appended to a
// are drawn at this scale, so an update is neither negligible nor dominant
// beside the rows already there.
func elementRMS(a *tcqr.Matrix) float64 {
	var s float64
	for _, v := range a.Data {
		s += v * v
	}
	return math.Sqrt(s / float64(len(a.Data)))
}
