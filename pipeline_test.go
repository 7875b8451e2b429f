package tcqr

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tcqr/internal/matgen"
)

// These tests hold the library pipeline to "each stage exists once": two
// entry points that are documented as the same computation must agree bit
// for bit, with no host-dependent constants.

// TestMultiMatchesSinglePerMethod: a right-hand side gets the same answer
// alone or in a block, under every refinement method, its hazards included.
// The multi-RHS solver used to ignore opts.Method (always CGLS), so two
// coalesced /v1/solve requests with method lsqr or none came back
// different from the same request arriving alone. It also used to record
// every column's refinement events into one shared list, so in the block
// [Normal, 0] at an unreachable tolerance the zero column — which converges
// at once and records nothing alone — carried its batchmate's CGLS
// divergence. Method 2, classical refinement until it was retired, is
// refused alone and in a block alike rather than answered by another method.
func TestMultiMatchesSinglePerMethod(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const m, n = 512, 64
	a := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric)
	normal := matgen.Normal(rng, m, 3)
	mixed := NewMatrix(m, 2)
	copy(mixed.Col(0), matgen.Normal(rng, m, 1).Col(0))
	f, err := Factorize(ToFloat32(a), Config{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := []struct {
		prefix string
		b      *Matrix
		tol    float64
	}{
		{"", normal, 0},
		{"normal+zero/", mixed, 1e-30},
	}
	const retired = RefineMethod(2)
	diverged := false
	for _, blk := range blocks {
		for _, method := range []RefineMethod{RefineCGLS, RefineLSQR, retired, RefineNone} {
			t.Run(fmt.Sprintf("%smethod=%d", blk.prefix, method), func(t *testing.T) {
				opts := SolveOptions{Method: method, Tol: blk.tol}
				multi, err := SolveLeastSquaresMultiWithFactor(f, a, blk.b, opts)
				if method == retired {
					_, serr := SolveLeastSquaresWithFactor(f, a, blk.b.Col(0), opts)
					if err == nil || serr == nil || err.Error() != serr.Error() {
						t.Fatalf("multi error %v, single error %v; want the same refusal", err, serr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < blk.b.Cols; j++ {
					single, err := SolveLeastSquaresWithFactor(f, a, blk.b.Col(j), opts)
					if err != nil {
						t.Fatal(err)
					}
					for i, x := range multi.X.Col(j) {
						if math.Float64bits(x) != math.Float64bits(single.X[i]) {
							t.Fatalf("rhs %d: multi X[%d] = %v, single %v", j, i, x, single.X[i])
						}
					}
					if multi.Iterations[j] != single.Iterations || multi.Converged[j] != single.Converged {
						t.Errorf("rhs %d: multi iterations/converged %d/%v, single %d/%v",
							j, multi.Iterations[j], multi.Converged[j], single.Iterations, single.Converged)
					}
					if math.Float64bits(multi.Optimality[j]) != math.Float64bits(single.Optimality) {
						t.Errorf("rhs %d: multi optimality %g, single %g", j, multi.Optimality[j], single.Optimality)
					}
					if !slices.Equal(multi.Hazards[j], single.Hazards) {
						t.Errorf("rhs %d: multi hazards %v, single %v", j, multi.Hazards[j], single.Hazards)
					}
					diverged = diverged || slices.ContainsFunc(single.Hazards, func(h Hazard) bool { return h.Kind == HazardDivergence })
				}
			})
		}
	}
	if !diverged {
		t.Fatal("no column diverged; the normal+zero block needs one that records a hazard")
	}
}

// TestMultiBitsIndependentOfProcs runs the block solve under CGLS and LSQR at
// GOMAXPROCS 1, 2 and 4 on a 4096×128 problem, the size from which blas
// shares a float64 Gemv between the caller and parked helpers: how many
// columns refine at once and who computes an element of a product change
// with the count, and X and the optimality must not.
func TestMultiBitsIndependentOfProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := matgen.WithCond(rng, 4096, 128, 1e4, matgen.Geometric)
	b := matgen.Normal(rng, 4096, 3)
	f, err := Factorize(ToFloat32(a), Config{Cutoff: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := map[RefineMethod][]float64{}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, method := range []RefineMethod{RefineCGLS, RefineLSQR} {
			res, err := SolveLeastSquaresMultiWithFactor(f, a, b, SolveOptions{Method: method})
			if err != nil {
				t.Fatal(err)
			}
			got := append(res.X.Data, res.Optimality...)
			if want[method] == nil {
				want[method] = got
				continue
			}
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(want[method][i]) {
					t.Errorf("%v at GOMAXPROCS %d: element %d is %v, at 1 %v", method, procs, i, v, want[method][i])
					break
				}
			}
		}
	}
}
