package chol

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
)

// spdMatrix builds a well-conditioned SPD matrix G = AᵀA + n·I.
func spdMatrix(rng *rand.Rand, n int) *dense.M64 {
	a := dense.New[float64](n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	g := dense.New[float64](n, n)
	blas.Gemm(blas.Trans, blas.NoTrans, 1, a, a, 0, g)
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)+float64(n))
	}
	return g
}

func TestPotrfReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 17, 64} {
		g := spdMatrix(rng, n)
		l := g.Clone()
		if err := Potrf(l); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Zero the strict upper triangle before reconstructing.
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				l.Set(i, j, 0)
			}
		}
		llt := dense.New[float64](n, n)
		blas.Gemm(blas.NoTrans, blas.Trans, 1, l, l, 0, llt)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(llt.At(i, j)-g.At(i, j)) > 1e-9*float64(n) {
					t.Fatalf("n=%d: LLᵀ(%d,%d) = %v, want %v", n, i, j, llt.At(i, j), g.At(i, j))
				}
			}
		}
	}
}

func TestPotrfRejectsIndefinite(t *testing.T) {
	g := dense.New[float64](2, 2)
	g.Set(0, 0, 1)
	g.Set(1, 0, 5)
	g.Set(1, 1, 1) // 1 - 25 < 0 after elimination
	err := Potrf(g)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestPotrfFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g64 := spdMatrix(rng, 16)
	g := dense.ToF32(g64)
	l := g.Clone()
	if err := Potrf(l); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 16; j++ {
		for i := 0; i < j; i++ {
			l.Set(i, j, 0)
		}
	}
	llt := dense.New[float32](16, 16)
	blas.Gemm(blas.NoTrans, blas.Trans, 1, l, l, 0, llt)
	for i := range llt.Data {
		if math.Abs(float64(llt.Data[i]-g.Data[i])) > 1e-3 {
			t.Fatalf("float32 LLᵀ mismatch at %d: %v vs %v", i, llt.Data[i], g.Data[i])
		}
	}
}
