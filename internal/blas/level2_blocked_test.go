package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/dense"
)

// refGemv is the reference loop Gemv must reproduce bit for bit, written out
// here rather than taken from level2.go: sequential column sweeps (NoTrans)
// and one sequential dot product per column (Trans), with the
// zero-coefficient column skip.
func refGemv[T dense.Float](tA Transpose, alpha T, a *dense.Matrix[T], x []T, beta T, y []T) {
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
	if tA == NoTrans {
		for j := 0; j < a.Cols; j++ {
			xj := alpha * x[j]
			if xj == 0 {
				continue
			}
			col := a.Col(j)
			for i, v := range col {
				y[i] += v * xj
			}
		}
		return
	}
	for j := 0; j < a.Cols; j++ {
		y[j] += alpha * Dot(a.Col(j), x)
	}
}

// TestGemvBlockedBitIdentical pins the kernel policy for Gemv: identical
// results to the reference loop down to the last bit, across shapes that
// exercise the eight-column vector body and every tail length, zero
// coefficients (which must skip columns, not add ±0), and non-finite matrix
// entries. The last four shapes sit on both sides of gemvSplitMin, the larger
// ones with a row and a column tail in their last chunk, so from two
// processors up (go test -cpu 1,2,4) the split Gemv is held to the same bits.
func TestGemvBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ m, n int }{
		{1, 1}, {3, 2}, {7, 3}, {8, 4}, {16, 5}, {5, 6}, {33, 7}, {64, 8},
		{129, 9}, {100, 31}, {256, 64}, {1024, 48},
		{4096, 127}, {4096, 128}, {4099, 131}, {2049, 263},
	}
	for _, tA := range []Transpose{NoTrans, Trans} {
		for _, s := range shapes {
			for trial := 0; trial < 4; trial++ {
				a := randMat(rng, s.m, s.n)
				r, c := s.m, s.n
				if tA == Trans {
					r, c = s.n, s.m
				}
				x := make([]float64, c)
				y0 := make([]float64, r)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				for i := range y0 {
					y0[i] = rng.NormFloat64()
				}
				switch trial {
				case 1: // zero coefficients inside and outside block bodies
					for i := 0; i < len(x); i += 3 {
						x[i] = 0
					}
				case 2: // signed zeros and non-finite matrix entries
					for i := range x {
						if i%2 == 0 {
							x[i] = math.Copysign(0, -1)
						}
					}
					a.Data[0] = math.Inf(1)
					if len(a.Data) > 5 {
						a.Data[5] = math.NaN()
					}
				case 3: // alpha/beta variants exercised below
				}
				alpha, beta := 1.0, 1.0
				if trial == 3 {
					alpha, beta = -2.5, 0.5
				}
				got := append([]float64(nil), y0...)
				want := append([]float64(nil), y0...)
				Gemv(tA, alpha, a, x, beta, got)
				refGemv(tA, alpha, a, x, beta, want)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v %dx%d trial %d: y[%d] = %x (%g), reference %x (%g)",
							tA, s.m, s.n, trial, i,
							math.Float64bits(got[i]), got[i],
							math.Float64bits(want[i]), want[i])
					}
				}
			}
		}
	}
}

// TestGemvBlockedBitIdenticalF32 repeats the bit-exactness check in float32,
// the precision the factorization kernels run in.
func TestGemvBlockedBitIdenticalF32(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tA := range []Transpose{NoTrans, Trans} {
		for _, n := range []int{1, 3, 4, 5, 8, 11, 17} {
			m := 2*n + 3
			a := dense.New[float32](m, n)
			for i := range a.Data {
				a.Data[i] = float32(rng.NormFloat64())
			}
			r, c := m, n
			if tA == Trans {
				r, c = n, m
			}
			x := make([]float32, c)
			for i := range x {
				x[i] = float32(rng.NormFloat64())
			}
			got := make([]float32, r)
			want := make([]float32, r)
			Gemv(tA, 1, a, x, 0, got)
			refGemv(tA, 1, a, x, 0, want)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%v %dx%d: y[%d] = %g, reference %g", tA, m, n, i, got[i], want[i])
				}
			}
		}
	}
}

// refTrsv is the reference substitution Trsv's Upper cases must reproduce
// bit for bit, written out here rather than taken from level2.go.
func refTrsv[T dense.Float](uplo Uplo, tA Transpose, diag Diag, a *dense.Matrix[T], x []T) {
	n := a.Rows
	if tA == NoTrans && uplo == Upper {
		for j := n - 1; j >= 0; j-- {
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
		return
	}
	if tA == Trans && uplo == Upper {
		for j := 0; j < n; j++ {
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
		return
	}
	panic("refTrsv: case not modeled")
}

// TestTrsvBlockedBitIdentical pins the Upper NoTrans/Trans Trsv — the AVX2
// kernels in float64 where they run, the Go loops elsewhere — to the
// reference substitution down to the last bit, including blocks where a
// solved component lands exactly on zero (the reference skips those columns,
// so v·0 must never be added). From n = 16 on it also plants one special
// value at each of the eight positions of one vector block (the second from
// where the substitution starts, so it has a head and a solved part on both
// sides): a zero solved component of either sign, an Inf or a NaN right-hand
// side, and an Inf or a NaN in that column of A.
func TestTrsvBlockedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	upper := func(n int) (*dense.M64, []float64) {
		a := dense.New[float64](n, n)
		for j := 0; j < n; j++ {
			col := a.Col(j)
			for i := 0; i <= j; i++ {
				col[i] = rng.NormFloat64()
			}
			// A well-scaled diagonal keeps the substitution finite.
			col[j] = 2 + rng.Float64()
		}
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		return a, x0
	}
	// solveToZero makes component c of the solution ±0: its right-hand side
	// is v and nothing couples it to the components solved before it.
	solveToZero := func(tA Transpose, a *dense.M64, x0 []float64, c int, v float64) {
		x0[c] = v
		if tA == NoTrans {
			for j := c + 1; j < a.Cols; j++ {
				a.Col(j)[c] = 0
			}
			return
		}
		clear(a.Col(c)[:c])
	}
	plants := []string{"zero", "-zero", "inf b", "nan b", "inf A", "nan A"}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 129, 256, 257, 511, 512, 513} {
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, diag := range []Diag{NonUnit, Unit} {
				for trial := 0; trial < 4; trial++ {
					a, x0 := upper(n)
					switch trial {
					case 1: // force zero solved components inside block bodies
						for i := 0; i < n; i += 3 {
							solveToZero(tA, a, x0, i, 0)
						}
					case 2: // non-finite strictly-upper entries propagate identically
						if n > 4 {
							a.Col(n - 1)[0] = math.Inf(1)
							a.Col(n - 2)[1] = math.NaN()
						}
					case 3: // every component solves to −0: a skipped column added as ±0 shows
						for i := range x0 {
							x0[i] = math.Copysign(0, -1)
						}
					}
					trsvSameBits(t, fmt.Sprintf("%v n=%d diag=%v trial %d", tA, n, diag, trial), tA, diag, a, x0)
				}
				if n < 16 {
					continue
				}
				lo := 8
				if tA == NoTrans {
					lo = n - 16
				}
				for c := lo; c < lo+8; c++ {
					for _, plant := range plants {
						a, x0 := upper(n)
						switch plant {
						case "zero":
							solveToZero(tA, a, x0, c, 0)
						case "-zero":
							solveToZero(tA, a, x0, c, math.Copysign(0, -1))
						case "inf b":
							x0[c] = math.Inf(1)
						case "nan b":
							x0[c] = math.NaN()
						case "inf A":
							a.Col(c)[0] = math.Inf(-1)
						case "nan A":
							a.Col(c)[c/2] = math.NaN()
						}
						trsvSameBits(t, fmt.Sprintf("%v n=%d diag=%v %s at column %d", tA, n, diag, plant, c), tA, diag, a, x0)
					}
				}
			}
		}
	}
}

// trsvSameBits solves with Trsv and with refTrsv from x0 and fails at the
// first component whose bits differ.
func trsvSameBits(t *testing.T, what string, tA Transpose, diag Diag, a *dense.M64, x0 []float64) {
	t.Helper()
	got := append([]float64(nil), x0...)
	want := append([]float64(nil), x0...)
	Trsv(Upper, tA, diag, a, got)
	refTrsv(Upper, tA, diag, a, want)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %x (%g), reference %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func BenchmarkTrsvUpperTrans(b *testing.B)   { benchTrsvUpper(b, Trans, 3) }
func BenchmarkTrsvUpperNoTrans(b *testing.B) { benchTrsvUpper(b, NoTrans, 4) }

// benchTrsvUpper times the refinement's triangular solve on the upper
// triangles of the workloads' 256- and 512-column factors, held in float64
// (f64) and in float32, widened as it is loaded (f32, the R a refinement
// applies); SetBytes counts the triangle's bytes.
func benchTrsvUpper(b *testing.B, tA Transpose, seed int64) {
	for _, n := range []int{256, 512} {
		a := dense.New[float64](n, n)
		rng := rand.New(rand.NewSource(seed))
		for j := 0; j < n; j++ {
			col := a.Col(j)
			for i := 0; i <= j; i++ {
				col[i] = float64(float32(rng.NormFloat64()))
			}
			col[j] = 2
		}
		x := make([]float64, n)
		run := func(b *testing.B, bytes int64, solve func()) {
			b.SetBytes(int64(n) * int64(n) * bytes / 2)
			for i := 0; i < b.N; i++ {
				for j := range x {
					x[j] = 1
				}
				solve()
			}
		}
		a32 := dense.ToF32(a)
		b.Run(fmt.Sprintf("%d/f64", n), func(b *testing.B) { run(b, 8, func() { Trsv(Upper, tA, NonUnit, a, x) }) })
		b.Run(fmt.Sprintf("%d/f32", n), func(b *testing.B) { run(b, 4, func() { Trsv(Upper, tA, NonUnit, a32, x) }) })
	}
}

func BenchmarkGemvTrans(b *testing.B) {
	a := benchM(2048, 512)
	x := make([]float32, 2048)
	y := make([]float32, 512)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(2048 * 512 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemv(Trans, 1, a, x, 0, y)
	}
}
