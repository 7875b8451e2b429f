package tcqr

import (
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"tcqr/internal/matgen"
)

// xBits hashes a solution by Float64bits.
func xBits(x []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestSolveLeastSquaresRefineNoneKeepsQ: SolveLeastSquares factors with
// FactorizeR, except under RefineNone, whose direct solve x = R⁻¹Qᵀb reads Q.
// So a RefineNone solve returns a factor with Q and the X it always had
// (recorded when every solve factored with Factorize), a CGLS solve returns
// a factor without Q and the X of a solve on Factorize's factor, and that
// R-only factor reused with RefineNone is the typed shape error, not a nil
// dereference.
func TestSolveLeastSquaresRefineNoneKeepsQ(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	a := matgen.WithCond(rng, 512, 96, 1e3, matgen.Geometric)
	b := matgen.Normal(rng, 512, 1).Col(0)
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}

	direct, err := SolveLeastSquares(a, b, SolveOptions{Method: RefineNone})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Factorization.Q == nil {
		t.Fatal("a RefineNone solve returned a factor without Q")
	}
	const wantDirect uint64 = 0x73561cd013aede71
	got := xBits(direct.X)
	t.Logf("RefineNone X %#016x", got)
	if runtime.GOARCH == "amd64" && got != wantDirect {
		t.Errorf("RefineNone X hashes to %#016x, recorded %#016x", got, wantDirect)
	}

	res, err := SolveLeastSquares(a, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Factorization.Q != nil {
		t.Error("a CGLS solve returned a factor with Q")
	}
	full, err := Factorize(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := SolveLeastSquaresWithFactor(full, a, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !same(res.X, again.X) || res.Iterations != again.Iterations {
		t.Error("the CGLS solve differs from the one on Factorize's factor")
	}

	_, err = SolveLeastSquaresWithFactor(res.Factorization, a, b, SolveOptions{Method: RefineNone})
	if !errors.Is(err, ErrShape) {
		t.Errorf("RefineNone on an R-only factor: %v, want an ErrShape error", err)
	}
}

// TestSolveNormMemo: CGLS's stop rule reads an estimate of ‖A‖₂ that a
// Factorization computes from R on its first solve and keeps. Concurrent
// first solves over one fresh factorization race to store it, and each
// returns the bits of a solve over a factorization that never shared its
// estimate (make check runs it under the race detector). A factorization
// given another R estimates again: its solve is a fresh factorization's of
// that R. The other R is R/1024, which leaves every CG iterate's bits as
// they are and scales the estimate down, so the run never reaches the floor
// and goes on to another stop: a stale estimate would settle it as before.
func TestSolveNormMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	a := matgen.WithCond(rng, 512, 64, 1e3, matgen.Geometric)
	b := matgen.Normal(rng, 512, 1).Col(0)
	solve := func(f *Factorization) (*LeastSquaresResult, error) {
		return SolveLeastSquaresWithFactor(f, a, b, SolveOptions{})
	}
	fresh := func(cfg Config) *Factorization {
		f, err := FactorizeR(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	want, err := solve(fresh(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	shared := fresh(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				got, err := solve(shared)
				if err != nil {
					t.Error(err)
					return
				}
				if xBits(got.X) != xBits(want.X) || got.Iterations != want.Iterations {
					t.Errorf("goroutine %d, solve %d: %d iterations, X %#016x; alone %d, %#016x",
						g, it, got.Iterations, xBits(got.X), want.Iterations, xBits(want.X))
				}
			}
		}()
	}
	wg.Wait()

	scaled := shared.R.Clone()
	for i := range scaled.Data {
		scaled.Data[i] /= 1024
	}
	wantOther, err := solve(&Factorization{R: scaled})
	if err != nil {
		t.Fatal(err)
	}
	if wantOther.Iterations <= want.Iterations {
		t.Fatalf("R/1024: %d iterations, R: %d; the case tells a stale estimate from a fresh one only if it is longer",
			wantOther.Iterations, want.Iterations)
	}
	shared.R = scaled
	got, err := solve(shared)
	if err != nil {
		t.Fatal(err)
	}
	if xBits(got.X) != xBits(wantOther.X) || got.Iterations != wantOther.Iterations {
		t.Errorf("after R was replaced: %d iterations, X %#016x; a fresh factorization of that R %d, %#016x",
			got.Iterations, xBits(got.X), wantOther.Iterations, xBits(wantOther.X))
	}
}
