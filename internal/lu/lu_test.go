package lu

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/matgen"
	"tcqr/internal/tcsim"
)

func randSquare(seed int64, n int) (*dense.M64, *dense.M32) {
	rng := rand.New(rand.NewSource(seed))
	a64 := matgen.Normal(rng, n, n)
	// Diagonal dominance keeps the tests' systems comfortably nonsingular.
	for i := 0; i < n; i++ {
		a64.Set(i, i, a64.At(i, i)+float64(n)/4)
	}
	return a64, dense.ToF32(a64)
}

// reconstruct forms P⁻¹·L·U and compares to A.
func reconstructError(f *Factorization, a *dense.M32) float64 {
	n := a.Rows
	l := dense.New[float64](n, n)
	u := dense.New[float64](n, n)
	for j := 0; j < n; j++ {
		col := f.LU.Col(j)
		u.Set(j, j, float64(col[j]))
		for i := 0; i < j; i++ {
			u.Set(i, j, float64(col[i]))
		}
		l.Set(j, j, 1)
		for i := j + 1; i < n; i++ {
			l.Set(i, j, float64(col[i]))
		}
	}
	pa := dense.New[float64](n, n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, l, u, 0, pa)
	// Undo the permutation: rows were swapped forward; apply inverse in
	// reverse order to recover A ordering.
	for k := n - 1; k >= 0; k-- {
		if p := f.Pivots[k]; p != k {
			for c := 0; c < n; c++ {
				col := pa.Col(c)
				col[k], col[p] = col[p], col[k]
			}
		}
	}
	a64 := dense.ToF64(a)
	var num float64
	for i := range pa.Data {
		d := pa.Data[i] - a64.Data[i]
		num += d * d
	}
	return math.Sqrt(num) / dense.NormFro(a64)
}

func TestFactorReconstruction(t *testing.T) {
	for _, n := range []int{1, 2, 7, 33, 96, 130} {
		_, a := randSquare(int64(n), n)
		f, err := Factor(a, Options{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e := reconstructError(f, a); e > 1e-5 {
			t.Errorf("n=%d: reconstruction error %g", n, e)
		}
	}
}

func TestPartialPivoting(t *testing.T) {
	// A matrix needing a swap at the first step: |a₁₀| > |a₀₀|.
	a := dense.New[float32](2, 2)
	a.Set(0, 0, 1e-8)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	f, err := Factor(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Pivots[0] != 1 {
		t.Errorf("pivot[0] = %d, want 1", f.Pivots[0])
	}
	// All multipliers bounded by 1 under partial pivoting.
	n := f.LU.Rows
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			if abs32(f.LU.At(i, j)) > 1+1e-6 {
				t.Errorf("multiplier (%d,%d) = %v exceeds 1", i, j, f.LU.At(i, j))
			}
		}
	}
}

func TestSingularDetection(t *testing.T) {
	a := dense.New[float32](3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1) // column 2 entirely zero
	_, err := Factor(a, Options{})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if _, err := Factor(dense.New[float32](2, 3), Options{}); err == nil {
		t.Fatal("non-square input must be rejected")
	}
}

// TestGrowthOverflowsHalfPrecision makes the §3.5 footnote executable:
// Gaussian elimination on the Wilkinson matrix (entries in {-1, 0, 1})
// grows like 2^(n-1); at n > 17 the intermediate values exceed 65504, so
// the TensorCore trailing update overflows even though every INPUT element
// is ±1 — something that cannot happen to the column-scaled QR, whose
// intermediates are bounded by the (preserved) column norms.
func TestGrowthOverflowsHalfPrecision(t *testing.T) {
	n := 96
	a := dense.New[float32](n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		a.Set(i, n-1, 1)
		for j := 0; j < i; j++ {
			a.Set(i, j, -1)
		}
	}
	// FP32 engine: factors fine, growth ≈ 2^(n-1) (inf at n=96 in f32
	// after ~2^127... n=96 keeps 2^95 within float32 range).
	f32eng, err := Factor(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	growth := f32eng.GrowthFactor(a)
	if growth < math.Exp2(90) {
		t.Errorf("expected ~2^95 growth, got %g", growth)
	}

	// TensorCore engine: the trailing update rounds intermediates through
	// binary16 and overflows once they pass 65504.
	eng := &tcsim.TensorCore{TrackSpecials: true}
	fTC, err := Factor(a, Options{Engine: eng, BlockSize: 16})
	if err == nil {
		// Either the factorization fails on a NaN pivot or the result is
		// poisoned — both demonstrate the hazard.
		if !fTC.LU.HasNaN() && eng.Stats().Overflows == 0 {
			t.Error("expected fp16 overflow during TC-LU of the growth matrix")
		}
	}
	if eng.Stats().Overflows == 0 {
		t.Error("no overflow events recorded")
	}
}

func TestGrowthFactorBookkeeping(t *testing.T) {
	_, a := randSquare(7, 32)
	f, err := Factor(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := f.GrowthFactor(a)
	// Random diagonally dominant matrices have modest growth.
	if g < 0.1 || g > 100 {
		t.Errorf("growth factor %g implausible", g)
	}
	if (&Factorization{LU: dense.New[float32](2, 2), Pivots: []int{0, 1}}).GrowthFactor(dense.New[float32](2, 2)) != 0 {
		t.Error("zero matrix growth should be 0")
	}
}
