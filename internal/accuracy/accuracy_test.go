package accuracy

import (
	"math"
	"testing"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
)

func TestBackwardErrorExactFactorization(t *testing.T) {
	// A = Q·R with orthogonal 2×2 rotation and a chosen R: error must be
	// at float32 rounding level; a perturbed R must register.
	c, s := float32(math.Cos(0.3)), float32(math.Sin(0.3))
	q := dense.New[float32](2, 2)
	q.Set(0, 0, c)
	q.Set(1, 0, s)
	q.Set(0, 1, -s)
	q.Set(1, 1, c)
	r := dense.New[float32](2, 2)
	r.Set(0, 0, 2)
	r.Set(0, 1, 1)
	r.Set(1, 1, 3)
	a := dense.New[float32](2, 2)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, q, r, 0, a)
	if be := BackwardError(a, q, r); be > 1e-7 {
		t.Errorf("exact factorization backward error %g", be)
	}
	rBad := r.Clone()
	rBad.Set(0, 1, 1.1)
	if be := BackwardError(a, q, rBad); be < 1e-3 {
		t.Errorf("perturbed factorization backward error %g too small", be)
	}
}

func TestOrthoError(t *testing.T) {
	id := dense.New[float32](5, 3)
	id.SetIdentity()
	if oe := OrthoError(id); oe != 0 {
		t.Errorf("identity columns ortho error %g", oe)
	}
	// Doubling a column gives ‖I − QᵀQ‖ with a 3 on that diagonal entry.
	bad := id.Clone()
	blas.Scal(2, bad.Col(1))
	if oe := OrthoError(bad); math.Abs(oe-3) > 1e-12 {
		t.Errorf("ortho error %g, want 3", oe)
	}
	// float64 variant agrees.
	if oe := OrthoError64(dense.ToF64(bad)); math.Abs(oe-3) > 1e-12 {
		t.Errorf("OrthoError64 %g", oe)
	}
}

func TestLLSOptimalityAndResidual(t *testing.T) {
	// A = I (3×2 embedding): x = b[:2] is optimal; Aᵀ(Ax−b) = 0 while the
	// residual is |b[2]|.
	a := dense.New[float64](3, 2)
	a.SetIdentity()
	b := []float64{1, 2, 5}
	x := []float64{1, 2}
	if opt := LLSOptimality(a, x, b); opt > 1e-15 {
		t.Errorf("optimality at minimizer %g", opt)
	}
	if res := ResidualNorm(a, x, b); math.Abs(res-5) > 1e-15 {
		t.Errorf("residual %g, want 5", res)
	}
	// Suboptimal x registers in the gradient.
	if opt := LLSOptimality(a, []float64{0, 0}, b); math.Abs(opt-math.Sqrt(5)) > 1e-12 {
		t.Errorf("gradient at zero %g, want √5", opt)
	}
}

func TestUpperTriangular(t *testing.T) {
	r := dense.New[float64](3, 3)
	r.Set(0, 1, 1)
	r.Set(2, 2, 1)
	if !UpperTriangular(r) {
		t.Error("upper triangular not recognized")
	}
	r.Set(2, 0, 1e-30)
	if UpperTriangular(r) {
		t.Error("sub-diagonal entry not detected")
	}
	// Tall rectangular with zero below diagonal.
	tall := dense.New[float64](4, 2)
	tall.Set(0, 0, 1)
	tall.Set(1, 1, 1)
	if !UpperTriangular(tall) {
		t.Error("tall upper trapezoid not recognized")
	}
}
