package tcqr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/matgen"
)

// These tests hold the library pipeline to "each stage exists once": two
// entry points that are documented as the same computation must agree bit
// for bit, with no host-dependent constants.

// TestMultiMatchesSinglePerMethod: a right-hand side gets the same answer
// alone or in a block, under every refinement method. The multi-RHS solver
// used to ignore opts.Method (always CGLS), so two coalesced /v1/solve
// requests with method lsqr, classical or none came back different from the
// same request arriving alone.
func TestMultiMatchesSinglePerMethod(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const m, n, nrhs = 512, 64, 3
	a := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric)
	b := matgen.Normal(rng, m, nrhs)
	f, err := Factorize(ToFloat32(a), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []RefineMethod{RefineCGLS, RefineLSQR, RefineClassical, RefineNone} {
		t.Run(fmt.Sprintf("method=%d", method), func(t *testing.T) {
			opts := SolveOptions{Method: method}
			multi, err := SolveLeastSquaresMultiWithFactor(f, a, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < nrhs; j++ {
				single, err := SolveLeastSquaresWithFactor(f, a, b.Col(j), opts)
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
			}
		})
	}
}
