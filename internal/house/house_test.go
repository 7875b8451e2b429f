package house

import (
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
)

func randMat[T dense.Float](rng *rand.Rand, r, c int) *dense.Matrix[T] {
	m := dense.New[T](r, c)
	for i := range m.Data {
		m.Data[i] = T(rng.NormFloat64())
	}
	return m
}

// backwardError returns ‖A - QR‖_F / ‖A‖_F in float64.
func backwardError[T dense.Float](a, q, r *dense.Matrix[T]) float64 {
	qr := dense.New[float64](a.Rows, a.Cols)
	var q64, rw *dense.M64
	switch any(T(0)).(type) {
	case float32:
		q64 = dense.ToF64(any(q).(*dense.M32))
		rw = dense.ToF64(any(r).(*dense.M32))
	default:
		q64 = any(q).(*dense.M64).Clone()
		rw = any(r).(*dense.M64).Clone()
	}
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, q64, rw, 0, qr)
	var a64 *dense.M64
	switch any(T(0)).(type) {
	case float32:
		a64 = dense.ToF64(any(a).(*dense.M32))
	default:
		a64 = any(a).(*dense.M64)
	}
	diff := a64.Clone()
	for i := range diff.Data {
		diff.Data[i] -= qr.Data[i]
	}
	return dense.NormFro(diff) / dense.NormFro(a64)
}

// orthoError returns ‖I - QᵀQ‖_F in float64.
func orthoError[T dense.Float](q *dense.Matrix[T]) float64 {
	var q64 *dense.M64
	switch any(T(0)).(type) {
	case float32:
		q64 = dense.ToF64(any(q).(*dense.M32))
	default:
		q64 = any(q).(*dense.M64)
	}
	g := dense.New[float64](q.Cols, q.Cols)
	blas.Gemm(blas.Trans, blas.NoTrans, 1, q64, q64, 0, g)
	for i := 0; i < q.Cols; i++ {
		g.Set(i, i, g.At(i, i)-1)
	}
	return dense.NormFro(g)
}

func TestGeqrfFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sz := range []struct{ m, n int }{{8, 8}, {40, 24}, {100, 100}, {128, 37}, {65, 64}} {
		a := randMat[float64](rng, sz.m, sz.n)
		qr := Factor(a, 16)
		q, r := qr.Q(), qr.R()
		if be := backwardError(a, q, r); be > 1e-14 {
			t.Errorf("%dx%d: backward error %g", sz.m, sz.n, be)
		}
		if oe := orthoError(q); oe > 1e-13 {
			t.Errorf("%dx%d: orthogonality %g", sz.m, sz.n, oe)
		}
		// R must be upper triangular.
		for j := 0; j < r.Cols; j++ {
			for i := j + 1; i < r.Rows; i++ {
				if r.At(i, j) != 0 {
					t.Fatalf("R(%d,%d) = %v below diagonal", i, j, r.At(i, j))
				}
			}
		}
	}
}

func TestGeqrfFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat[float32](rng, 96, 48)
	qr := Factor(a, 16)
	if be := backwardError(a, qr.Q(), qr.R()); be > 1e-5 {
		t.Errorf("float32 backward error %g", be)
	}
	if oe := orthoError(qr.Q()); oe > 1e-4 {
		t.Errorf("float32 orthogonality %g", oe)
	}
}

func TestBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat[float64](rng, 50, 30)
	blocked := a.Clone()
	tauB := Geqrf(blocked, 8)
	unblocked := a.Clone()
	tauU := make([]float64, 30)
	Geqr2(unblocked, tauU)
	for i := range tauU {
		if math.Abs(tauB[i]-tauU[i]) > 1e-12 {
			t.Fatalf("tau[%d]: blocked %v unblocked %v", i, tauB[i], tauU[i])
		}
	}
	for j := 0; j < 30; j++ {
		for i := 0; i <= j; i++ {
			if math.Abs(blocked.At(i, j)-unblocked.At(i, j)) > 1e-11 {
				t.Fatalf("R(%d,%d): blocked %v unblocked %v", i, j, blocked.At(i, j), unblocked.At(i, j))
			}
		}
	}
}

func TestLarfgProperties(t *testing.T) {
	// H·x must equal [β; 0] with |β| = ‖x‖.
	x := []float64{3, 4, 0, 12}
	alpha := x[0]
	tail := append([]float64(nil), x[1:]...)
	tau := Larfg(&alpha, tail)
	norm := blas.Nrm2(x)
	if math.Abs(math.Abs(alpha)-norm) > 1e-14 {
		t.Errorf("|beta| = %v, want %v", math.Abs(alpha), norm)
	}
	// beta has opposite sign of x[0] (LAPACK convention).
	if alpha*x[0] > 0 {
		t.Errorf("beta sign convention violated: beta=%v x0=%v", alpha, x[0])
	}
	// Verify H·x = [β;0] explicitly: v = [1, tail], H·x = x - τ·v·(vᵀx).
	v := append([]float64{1}, tail...)
	vtx := blas.Dot(v, x)
	hx := make([]float64, len(x))
	for i := range hx {
		hx[i] = x[i] - tau*v[i]*vtx
	}
	if math.Abs(hx[0]-alpha) > 1e-13 {
		t.Errorf("Hx[0] = %v, want %v", hx[0], alpha)
	}
	for i := 1; i < len(hx); i++ {
		if math.Abs(hx[i]) > 1e-13 {
			t.Errorf("Hx[%d] = %v, want 0", i, hx[i])
		}
	}
	// Zero tail: identity reflector.
	alpha = 5
	if tau := Larfg(&alpha, []float64{0, 0}); tau != 0 || alpha != 5 {
		t.Errorf("zero tail: tau=%v alpha=%v", tau, alpha)
	}
}

func TestOrmqrAgainstExplicitQ(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat[float64](rng, 30, 12)
	qr := Factor(a, 5)
	q := qr.Q()
	c := randMat[float64](rng, 30, 7)

	// Qᵀ·C via ormqr vs explicit GEMM. Note ormqr applies the full m×m Q,
	// so compare only through the thin factor's span: Qᵀ_thin·C.
	cOrm := c.Clone()
	Ormqr(blas.Trans, qr.Factored, qr.Tau, cOrm, 5)
	want := dense.New[float64](12, 7)
	blas.Gemm(blas.Trans, blas.NoTrans, 1, q, c, 0, want)
	for j := 0; j < 7; j++ {
		for i := 0; i < 12; i++ {
			if math.Abs(cOrm.At(i, j)-want.At(i, j)) > 1e-12 {
				t.Fatalf("ormqr trans (%d,%d): %v vs %v", i, j, cOrm.At(i, j), want.At(i, j))
			}
		}
	}

	// Round trip: Q·(Qᵀ·C) = C for the full square Q.
	back := cOrm.Clone()
	Ormqr(blas.NoTrans, qr.Factored, qr.Tau, back, 5)
	for i := range back.Data {
		if math.Abs(back.Data[i]-c.Data[i]) > 1e-12 {
			t.Fatalf("Q·Qᵀ·C != C at %d: %v vs %v", i, back.Data[i], c.Data[i])
		}
	}
}

func TestOrmqrVecSolvePath(t *testing.T) {
	// Solve A·x = b for square A via QR: x = R⁻¹·(Qᵀb).
	rng := rand.New(rand.NewSource(5))
	n := 20
	a := randMat[float64](rng, n, n)
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	blas.Gemv(blas.NoTrans, 1, a, xTrue, 0, b)

	qr := Factor(a, 0)
	qr.QTVec(b)
	blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, qr.Factored.View(0, 0, n, n), b)
	for i := range b {
		if math.Abs(b[i]-xTrue[i]) > 1e-10 {
			t.Fatalf("solve x[%d] = %v, want %v", i, b[i], xTrue[i])
		}
	}
}

func TestExtractR(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat[float64](rng, 10, 4)
	f := a.Clone()
	Geqrf(f, 0)
	r := ExtractR(f)
	if r.Rows != 4 || r.Cols != 4 {
		t.Fatalf("R shape %dx%d", r.Rows, r.Cols)
	}
	// Wide case: R is min(m,n)×n.
	w := randMat[float64](rng, 3, 6)
	Geqrf(w, 0)
	rw := ExtractR(w)
	if rw.Rows != 3 || rw.Cols != 6 {
		t.Fatalf("wide R shape %dx%d", rw.Rows, rw.Cols)
	}
}

func TestTallSkinnyAndEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Single column.
	a := randMat[float64](rng, 15, 1)
	qr := Factor(a, 0)
	if be := backwardError(a, qr.Q(), qr.R()); be > 1e-14 {
		t.Errorf("single column backward error %g", be)
	}
	// Single row.
	row := randMat[float64](rng, 1, 5)
	f := row.Clone()
	tau := Geqrf(f, 0)
	if len(tau) != 1 {
		t.Fatalf("tau length %d", len(tau))
	}
	// Already-orthogonal columns stay orthogonal.
	e := dense.New[float64](10, 3)
	e.SetIdentity()
	qre := Factor(e, 0)
	if oe := orthoError(qre.Q()); oe > 1e-14 {
		t.Errorf("identity input orthogonality %g", oe)
	}
}
