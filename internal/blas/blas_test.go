package blas

import (
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/dense"
)

// naiveGemm is the float64 reference implementation every kernel is checked
// against.
func naiveGemm(tA, tB Transpose, alpha float64, a, b *dense.M64, beta float64, c *dense.M64) *dense.M64 {
	opA := a
	if tA == Trans {
		opA = a.Transpose()
	}
	opB := b
	if tB == Trans {
		opB = b.Transpose()
	}
	out := dense.New[float64](c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			var s float64
			for l := 0; l < opA.Cols; l++ {
				s += opA.At(i, l) * opB.At(l, j)
			}
			out.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
	return out
}

func randMat(rng *rand.Rand, r, c int) *dense.M64 {
	m := dense.New[float64](r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func maxDiff(a, b *dense.M64) float64 {
	var d float64
	for i := range a.Data {
		if x := math.Abs(a.Data[i] - b.Data[i]); x > d {
			d = x
		}
	}
	return d
}

func TestGemmAllTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct{ m, n, k int }{{5, 7, 3}, {16, 16, 16}, {33, 9, 21}, {1, 5, 4}, {8, 1, 8}, {64, 48, 80}}
	for _, tA := range []Transpose{NoTrans, Trans} {
		for _, tB := range []Transpose{NoTrans, Trans} {
			for _, s := range shapes {
				var a, b *dense.M64
				if tA == NoTrans {
					a = randMat(rng, s.m, s.k)
				} else {
					a = randMat(rng, s.k, s.m)
				}
				if tB == NoTrans {
					b = randMat(rng, s.k, s.n)
				} else {
					b = randMat(rng, s.n, s.k)
				}
				c := randMat(rng, s.m, s.n)
				want := naiveGemm(tA, tB, 1.3, a, b, -0.7, c)
				Gemm(tA, tB, 1.3, a, b, -0.7, c)
				if d := maxDiff(c, want); d > 1e-10*float64(s.k) {
					t.Errorf("gemm tA=%v tB=%v %+v: max diff %g", tA, tB, s, d)
				}
			}
		}
	}
}

func TestGemmSpecialCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(rng, 10, 6), randMat(rng, 6, 8)
	c := randMat(rng, 10, 8)
	orig := c.Clone()

	// alpha = 0, beta = 1: C unchanged.
	Gemm(NoTrans, NoTrans, 0, a, b, 1, c)
	if !dense.Equal(c, orig) {
		t.Error("alpha=0 beta=1 modified C")
	}
	// alpha = 0, beta = 0: C zeroed even if it contained NaN.
	c.Set(0, 0, math.NaN())
	Gemm(NoTrans, NoTrans, 0, a, b, 0, c)
	for _, v := range c.Data {
		if v != 0 {
			t.Fatal("alpha=0 beta=0 did not zero C")
		}
	}
	// beta = 0 must overwrite, not accumulate.
	c = orig.Clone()
	want := naiveGemm(NoTrans, NoTrans, 2, a, b, 0, c)
	Gemm(NoTrans, NoTrans, 2, a, b, 0, c)
	if d := maxDiff(c, want); d > 1e-10 {
		t.Errorf("beta=0 diff %g", d)
	}
}

func TestGemmShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched inner dimension must panic")
		}
	}()
	Gemm(NoTrans, NoTrans, 1.0, dense.New[float64](2, 3), dense.New[float64](4, 2), 0, dense.New[float64](2, 2))
}

func TestGemv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 7, 5)
	x := make([]float64, 5)
	y := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	// Reference via naiveGemm with vectors as 1-column matrices.
	xm := dense.NewFromColMajor(5, 1, x)
	ym := dense.NewFromColMajor(7, 1, append([]float64(nil), y...))
	want := naiveGemm(NoTrans, NoTrans, 2, a, xm, 0.5, ym)
	Gemv(NoTrans, 2, a, x, 0.5, y)
	for i := range y {
		if math.Abs(y[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("gemv N: y[%d] = %v want %v", i, y[i], want.At(i, 0))
		}
	}
	// Transposed.
	yt := make([]float64, 5)
	Gemv(Trans, 1, a, y, 0, yt)
	for j := 0; j < 5; j++ {
		var s float64
		for i := 0; i < 7; i++ {
			s += a.At(i, j) * y[i]
		}
		if math.Abs(yt[j]-s) > 1e-12 {
			t.Fatalf("gemv T: y[%d] = %v want %v", j, yt[j], s)
		}
	}
}

func TestGer(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 4, 3)
	orig := a.Clone()
	x := []float64{1, 2, 3, 4}
	y := []float64{-1, 0.5, 2}
	Ger(1.5, x, y, a)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			want := orig.At(i, j) + 1.5*x[i]*y[j]
			if math.Abs(a.At(i, j)-want) > 1e-12 {
				t.Fatalf("ger(%d,%d) = %v want %v", i, j, a.At(i, j), want)
			}
		}
	}
}

func triangular(rng *rand.Rand, n int, uplo Uplo, diag Diag) *dense.M64 {
	a := dense.New[float64](n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			inTri := (uplo == Upper && i <= j) || (uplo == Lower && i >= j)
			if inTri {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		// Keep well-conditioned for the solve tests.
		a.Set(j, j, 2+rng.Float64())
	}
	if diag == Unit {
		for j := 0; j < n; j++ {
			a.Set(j, j, rng.NormFloat64()) // stored diagonal must be ignored
		}
	}
	return a
}

func applyTriangular(uplo Uplo, tA Transpose, diag Diag, a *dense.M64, x []float64) []float64 {
	n := a.Rows
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ai, aj := i, j
			if tA == Trans {
				ai, aj = j, i
			}
			inTri := (uplo == Upper && ai <= aj) || (uplo == Lower && ai >= aj)
			if !inTri {
				continue
			}
			v := a.At(ai, aj)
			if ai == aj && diag == Unit {
				v = 1
			}
			y[i] += v * x[j]
		}
	}
	return y
}

func TestTrsvAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, uplo := range []Uplo{Upper, Lower} {
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, diag := range []Diag{NonUnit, Unit} {
				a := triangular(rng, 9, uplo, diag)
				x := make([]float64, 9)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				b := applyTriangular(uplo, tA, diag, a, x)
				Trsv(uplo, tA, diag, a, b)
				for i := range x {
					if math.Abs(b[i]-x[i]) > 1e-9 {
						t.Fatalf("trsv uplo=%v tA=%v diag=%v: x[%d] = %v want %v", uplo, tA, diag, i, b[i], x[i])
					}
				}
			}
		}
	}
}

func TestTrmvAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, uplo := range []Uplo{Upper, Lower} {
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, diag := range []Diag{NonUnit, Unit} {
				a := triangular(rng, 8, uplo, diag)
				x := make([]float64, 8)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				want := applyTriangular(uplo, tA, diag, a, x)
				got := append([]float64(nil), x...)
				Trmv(uplo, tA, diag, a, got)
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-10 {
						t.Fatalf("trmv uplo=%v tA=%v diag=%v: [%d] = %v want %v", uplo, tA, diag, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestTrsmLeftRight(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, tA := range []Transpose{NoTrans, Trans} {
				n := 6
				var b *dense.M64
				if side == Left {
					b = randMat(rng, n, 4)
				} else {
					b = randMat(rng, 4, n)
				}
				a := triangular(rng, n, uplo, NonUnit)
				x := b.Clone()
				Trsm(side, uplo, tA, NonUnit, 2.0, a, x)
				// Verify op(A)·X = 2B (left) or X·op(A) = 2B (right).
				full := dense.New[float64](n, n)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if (uplo == Upper && i <= j) || (uplo == Lower && i >= j) {
							full.Set(i, j, a.At(i, j))
						}
					}
				}
				var got *dense.M64
				if side == Left {
					got = dense.New[float64](b.Rows, b.Cols)
					Gemm(tA, NoTrans, 1, full, x, 0, got)
				} else {
					got = dense.New[float64](b.Rows, b.Cols)
					Gemm(NoTrans, tA, 1, x, full, 0, got)
				}
				scaled := b.Clone()
				scaled.Scale(2)
				if d := maxDiff(got, scaled); d > 1e-8 {
					t.Errorf("trsm side=%v uplo=%v tA=%v: residual %g", side, uplo, tA, d)
				}
			}
		}
	}
}

func TestSyrk(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 7, 4)
	for _, tr := range []Transpose{NoTrans, Trans} {
		n, _ := opShape(tr, a)
		c := dense.New[float64](n, n)
		Syrk(Upper, tr, 1, a, 0, c)
		FillSymmetric(Upper, c)
		want := dense.New[float64](n, n)
		if tr == Trans {
			Gemm(Trans, NoTrans, 1, a, a, 0, want)
		} else {
			Gemm(NoTrans, Trans, 1, a, a, 0, want)
		}
		if d := maxDiff(c, want); d > 1e-10 {
			t.Errorf("syrk %v: diff %g", tr, d)
		}
	}
}

func TestGemmBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const nb = 12
	as := make([]*dense.M64, nb)
	bs := make([]*dense.M64, nb)
	cs := make([]*dense.M64, nb)
	wants := make([]*dense.M64, nb)
	for i := range as {
		as[i] = randMat(rng, 5+i, 3)
		bs[i] = randMat(rng, 3, 4)
		cs[i] = dense.New[float64](5+i, 4)
		wants[i] = naiveGemm(NoTrans, NoTrans, 1, as[i], bs[i], 0, cs[i])
	}
	GemmBatch(NoTrans, NoTrans, 1, as, bs, 0, cs)
	for i := range cs {
		if d := maxDiff(cs[i], wants[i]); d > 1e-10 {
			t.Errorf("batch %d: diff %g", i, d)
		}
	}
}

func TestLevel1(t *testing.T) {
	x := []float64{3, -4, 0}
	y := []float64{1, 2, 3}
	if got := Dot(x, y); got != -5 {
		t.Errorf("Dot = %v", got)
	}
	if got := Nrm2(x); math.Abs(got-5) > 1e-14 {
		t.Errorf("Nrm2 = %v", got)
	}
	yc := append([]float64(nil), y...)
	Axpy(2, x, yc)
	if yc[0] != 7 || yc[1] != -6 || yc[2] != 3 {
		t.Errorf("Axpy = %v", yc)
	}
	Scal(0.5, yc)
	if yc[0] != 3.5 {
		t.Errorf("Scal = %v", yc)
	}
}

func TestNrm2OverflowSafety(t *testing.T) {
	x := []float32{1e30, 1e30}
	want := float64(1e30) * math.Sqrt2
	if got := float64(Nrm2(x)); math.Abs(got-want)/want > 1e-6 {
		t.Errorf("Nrm2 overflow: %g want %g", got, want)
	}
}

func TestTrmmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, tA := range []Transpose{NoTrans, Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					n := 7
					a := triangular(rng, n, uplo, diag)
					var b *dense.M64
					if side == Left {
						b = randMat(rng, n, 5)
					} else {
						b = randMat(rng, 5, n)
					}
					got := b.Clone()
					Trmm(side, uplo, tA, diag, 1.5, a, got)
					// Reference through a dense copy of the triangle.
					full := dense.New[float64](n, n)
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							in := (uplo == Upper && i <= j) || (uplo == Lower && i >= j)
							if in {
								full.Set(i, j, a.At(i, j))
							}
							if i == j && diag == Unit {
								full.Set(i, j, 1)
							}
						}
					}
					want := dense.New[float64](b.Rows, b.Cols)
					if side == Left {
						Gemm(tA, NoTrans, 1.5, full, b, 0, want)
					} else {
						Gemm(NoTrans, tA, 1.5, b, full, 0, want)
					}
					if d := maxDiff(got, want); d > 1e-10 {
						t.Errorf("trmm side=%v uplo=%v tA=%v diag=%v: diff %g", side, uplo, tA, diag, d)
					}
				}
			}
		}
	}
}

// The three scans below are Nrm2, Asum and Iamax as they stood when |v| was
// "if v < 0 { v = -v }", kept as the oracle for the branch-free abs.

func oldNrm2[T dense.Float](x []T) T {
	var scale, ssq T = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := v
		if a < 0 {
			a = -a
		}
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

// TestAbsScansBitIdentical holds the branch-free scan to the branching
// one: the same bits on every input whose result is not NaN, and NaN where
// the old loop gives NaN (the sign of a NaN is not part of the contract:
// math.Abs clears it, -v flipped it only for v < 0, which a NaN is not).
func TestAbsScansBitIdentical(t *testing.T) {
	absScansBitIdentical[float32](t)
	absScansBitIdentical[float64](t)
}

func absScansBitIdentical[T dense.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	negZero := T(math.Copysign(0, -1))
	specials := []T{0, negZero, T(math.Inf(1)), T(math.Inf(-1)), T(math.NaN()),
		T(math.SmallestNonzeroFloat32), -T(math.SmallestNonzeroFloat32), T(math.MaxFloat32), -T(math.MaxFloat32)}
	same := func(what string, got, want T) {
		t.Helper()
		if want != want {
			if got == got {
				t.Fatalf("%T %s = %v, branching loop gives NaN", T(0), what, got)
			}
			return
		}
		if bitsOf(got) != bitsOf(want) {
			t.Fatalf("%T %s = %x (%v), branching loop %x (%v)", T(0), what, bitsOf(got), got, bitsOf(want), want)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		x := make([]T, rng.Intn(40))
		for i := range x {
			x[i] = T(rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20))
		}
		// A third of the trials get a few special values; an all-negative and
		// an all-zero vector come up through the scale and sign draws below.
		for n := rng.Intn(4) * (trial % 3 / 2); n > 0 && len(x) > 0; n-- {
			x[rng.Intn(len(x))] = specials[rng.Intn(len(specials))]
		}
		switch trial % 50 {
		case 0:
			for i := range x {
				x[i] = -T(math.Abs(float64(x[i])))
			}
		case 1:
			for i := range x {
				x[i] = negZero
			}
		}
		same("Nrm2", Nrm2(x), oldNrm2(x))
	}
}
