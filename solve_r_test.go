package tcqr

import (
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
