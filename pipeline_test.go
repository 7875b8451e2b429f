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

func bits32Equal(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTallEnvelopeMatchesSerial: with a single row block and n <= cutoff,
// FactorizeTall and Factorize under EngineFP32 both reduce to one panel call
// on the same operand (sign canonicalization is a no-op on Gram-Schmidt
// diagonals), so what is left to compare is exactly the safeguard envelope —
// column scaling, the exact unscale of R, the second pass and its R₂·R fold.
// It is one piece of code (rgs.FactorWith); this is what keeps it so.
func TestTallEnvelopeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	// Column norms spread over three decades, so the scales are not all 1.
	a := ToFloat32(matgen.BadlyScaled(rng, 480, 64, 3))
	for _, panel := range []PanelAlgorithm{PanelCAQR, PanelMGS} {
		for _, noScale := range []bool{false, true} {
			for _, reorth := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/noscale=%v/reorth=%v", panel, noScale, reorth), func(t *testing.T) {
					cfg := Config{Engine: EngineFP32, Panel: panel, DisableColumnScaling: noScale, ReOrthogonalize: reorth}
					serial, err := Factorize(a, cfg)
					if err != nil {
						t.Fatal(err)
					}
					tall, err := FactorizeTall(a, TallOptions{BlockRows: 1 << 20}, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if tall.TSQR.Blocks != 1 {
						t.Fatalf("Blocks = %d, want 1", tall.TSQR.Blocks)
					}
					if !bits32Equal(tall.Q.Data, serial.Q.Data) {
						t.Error("one-block FactorizeTall Q is not bit-identical to Factorize Q")
					}
					if !bits32Equal(tall.R.Data, serial.R.Data) {
						t.Error("one-block FactorizeTall R is not bit-identical to Factorize R")
					}
					if (tall.ColumnScales == nil) != noScale || !bits32Equal(tall.ColumnScales, serial.ColumnScales) {
						t.Errorf("ColumnScales differ: tall %v, serial %v", tall.ColumnScales, serial.ColumnScales)
					}
					if tall.Reorthogonalized != reorth || serial.Reorthogonalized != reorth {
						t.Errorf("Reorthogonalized: tall %v, serial %v, want %v", tall.Reorthogonalized, serial.Reorthogonalized, reorth)
					}
				})
			}
		}
	}
}

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
