package house_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tcqr"
	"tcqr/internal/house"
	"tcqr/internal/matgen"
)

// TestR32PreconditionsNoWorse is the correctness battery of the served
// factor upgrade: on every shape, condition number and spectrum below, CGLS
// preconditioned with R32's R is held to FactorizeR's R on the same
// right-hand sides. It takes no more iterations and ends with ‖Aᵀr‖ at most
// twice FactorizeR's, except below the float64 floor u·κ·‖b‖ (‖A‖₂ = 1
// here, so κ‖b‖ bounds ‖x‖ and the floor bounds u·‖A‖²·‖x‖, what a
// backward-stable solve leaves in ‖Aᵀr‖). There, where a run stops is where
// rounding stopped it: a run that ends below the floor on a divergence or
// stagnation event is not held to the iteration count, ‖Aᵀr‖ below the floor
// is not held to the factor of two, and neither is a run that converged,
// when FactorizeR's did too (both met the tolerance; the last step lands
// where it lands). The κ 1e6 rows are logged: there FactorizeR's
// refinement can run out of iterations.
func TestR32PreconditionsNoWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("a battery of 24 factorizations at up to 1024x256")
	}
	const u = 0x1p-53
	for _, sh := range []struct{ m, n int }{{512, 128}, {1024, 256}} {
		for _, cond := range []float64{1e1, 1e3, 1e5, 1e6} {
			for _, dist := range []matgen.Dist{matgen.Geometric, matgen.Arithmetic, matgen.Cluster2} {
				name := fmt.Sprintf("%dx%d/%g/%v", sh.m, sh.n, cond, dist)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(sh.m) + int64(math.Log10(cond)) + int64(dist)))
					a := matgen.WithCond(rng, sh.m, sh.n, cond, dist)
					f, err := tcqr.FactorizeR(a, tcqr.Config{})
					if err != nil {
						t.Fatal(err)
					}
					r, err := house.R32(a)
					if err != nil {
						t.Fatal(err)
					}
					up := &tcqr.Factorization{R: r}
					for k := 0; k < 2; k++ {
						b := matgen.Normal(rng, sh.m, 1).Col(0)
						opts := tcqr.SolveOptions{Method: tcqr.RefineCGLS}
						was, err := tcqr.SolveLeastSquaresWithFactor(f, a, b, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := tcqr.SolveLeastSquaresWithFactor(up, a, b, opts)
						if err != nil {
							t.Fatal(err)
						}
						floor := u * cond * norm2(b)
						if cond == 1e6 {
							t.Logf("rhs %d: FactorizeR %d it, ‖Aᵀr‖ %.2g; R32 %d it, ‖Aᵀr‖ %.2g (floor %.2g)",
								k, was.Iterations, was.Optimality, got.Iterations, got.Optimality, floor)
						}
						floorStop := got.Optimality <= floor && slices.ContainsFunc(got.Hazards, func(h tcqr.Hazard) bool {
							return h.Kind == tcqr.HazardDivergence || h.Kind == tcqr.HazardStagnation
						})
						if got.Iterations > was.Iterations && !floorStop {
							t.Errorf("rhs %d: %d CGLS iterations on R32's R, %d on FactorizeR's", k, got.Iterations, was.Iterations)
						}
						if !(got.Optimality <= 2*was.Optimality) && got.Optimality > floor && !(got.Converged && was.Converged) {
							t.Errorf("rhs %d: ‖Aᵀr‖ %.3g on R32's R, more than twice FactorizeR's %.3g and above the floor %.3g",
								k, got.Optimality, was.Optimality, floor)
						}
					}
				})
			}
		}
	}
}

func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// TestR32Refusals: an R that cannot precondition is refused, one that can
// is returned with a positive diagonal. A zero column gives an exact zero
// on the diagonal and is refused; columns scaled past float32's range round
// to infinity and are refused. A rank-deficient A or a ladder of column
// scales inside the range gives a usable R.
func TestR32Refusals(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	cases := []struct {
		name   string
		a      *tcqr.Matrix
		refuse bool
	}{
		{"rank-deficient", matgen.RankDeficient(rng, 300, 40, 20), false},
		{"zero-columns", matgen.WithZeroColumns(rng, 300, 40, 3, 17), true},
		{"exponent-ladder", matgen.ExponentLadder(rng, 300, 40, -20, 20), false},
		{"exponent-ladder-past-float32", matgen.ExponentLadder(rng, 300, 40, -20, 140), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := house.R32(c.a)
			if c.refuse {
				if !errors.Is(err, house.ErrUnusableR) {
					t.Fatalf("err = %v, want ErrUnusableR", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < r.Cols; j++ {
				if d := r.At(j, j); !(d > 0) {
					t.Fatalf("R[%d,%d] = %g, want positive", j, j, d)
				}
			}
		})
	}
	if _, err := house.R32(tcqr.NewMatrix(3, 4)); err == nil {
		t.Error("a wide matrix was factored")
	}
}

// TestR32BitsGolden pins R32's bits by hash on three shapes, one of them a
// strided view; make check runs it at one, two and four processors, which
// must not move a bit.
func TestR32BitsGolden(t *testing.T) {
	want := map[string]uint64{
		"1024x256":       0x10deeb835edf7714,
		"512x128":        0x724f847008858851,
		"700x96-strided": 0x80bf9c14546cdabd,
	}
	for _, sh := range []struct{ m, n, pad int }{{1024, 256, 0}, {512, 128, 0}, {700, 96, 5}} {
		name := fmt.Sprintf("%dx%d", sh.m, sh.n)
		if sh.pad > 0 {
			name += "-strided"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sh.m * sh.n)))
			a := matgen.WithCond(rng, sh.m+sh.pad, sh.n, 1e3, matgen.Geometric).View(0, 0, sh.m, sh.n)
			r, err := house.R32(a)
			if err != nil {
				t.Fatal(err)
			}
			got := r.Hash64()
			t.Logf("R %#016x", got)
			if runtime.GOARCH != "amd64" {
				return // recorded on amd64; other ports may fuse multiply-adds in the Go loops
			}
			if got != want[name] {
				t.Errorf("R %#016x, recorded %#016x", got, want[name])
			}
		})
	}
}
