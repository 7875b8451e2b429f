// Data fitting: recover the coefficients of a physical signal model from
// noisy samples — the class of least squares problems (satellite
// gradiometry, data fitting, statistics) that motivates Section 2.2 of the
// paper.
//
// The design matrix mixes polynomial trend columns t^k with harmonic
// columns sin/cos(2πft). The polynomial columns have wildly different
// magnitudes, which makes this a natural demonstration of the paper's
// Section 3.5 column scaling: without it, the half-precision engine
// overflows and the fit is destroyed; with it (the default), the fit
// reaches double precision.
//
// Run with: go run ./examples/datafit
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"tcqr"
)

const (
	samples    = 4096
	polyDeg    = 4  // 1, t, t², t³, t⁴
	harmonics  = 30 // sin/cos pairs at f = 1..30
	columns    = polyDeg + 1 + 2*harmonics
	noiseLevel = 1e-3
	// cutoff keeps the recursion active for this narrow design matrix so
	// the model columns actually flow through the neural-engine GEMMs.
	cutoff = 16
)

func main() {
	rng := rand.New(rand.NewSource(2))

	// Ground-truth coefficients. The polynomial coefficients are scaled so
	// every term contributes O(1) to the signal (a physical model would,
	// too — the raw t^k columns are huge, their coefficients tiny).
	coef := make([]float64, columns)
	for i := range coef {
		coef[i] = rng.NormFloat64()
	}
	for k := 0; k <= polyDeg; k++ {
		coef[2*harmonics+k] /= math.Pow(40, float64(k))
	}

	// Samples over t ∈ [0, 40]: the t⁴ column reaches 2.56e6 while the
	// harmonic columns stay in [-1, 1] — over 6 decades of column spread.
	// The polynomial columns come last so they sit in the trailing block
	// of the first recursion split, i.e. they pass through the neural
	// engine's GEMMs raw — which is where unscaled fp16 overflows.
	a := tcqr.NewMatrix(samples, columns)
	b := make([]float64, samples)
	for i := 0; i < samples; i++ {
		t := 40 * float64(i) / samples
		col := 0
		for h := 1; h <= harmonics; h++ {
			a.Set(i, col, math.Sin(2*math.Pi*float64(h)*t/40))
			col++
			a.Set(i, col, math.Cos(2*math.Pi*float64(h)*t/40))
			col++
		}
		tk := 1.0
		for k := 0; k <= polyDeg; k++ {
			a.Set(i, col, tk)
			col++
			tk *= t
		}
		for j := 0; j < columns; j++ {
			b[i] += a.At(i, j) * coef[j]
		}
		b[i] += noiseLevel * rng.NormFloat64()
	}

	fmt.Printf("fitting %d samples against %d model columns (column norms span 6+ decades)\n\n", samples, columns)

	// ‖Aᵀb‖ normalizes the optimality metric for display.
	gradScale := 0.0
	for j := 0; j < columns; j++ {
		var s float64
		for i := 0; i < samples; i++ {
			s += a.At(i, j) * b[i]
		}
		gradScale += s * s
	}
	gradScale = math.Sqrt(gradScale)

	// With the default configuration (column scaling ON).
	sol, err := tcqr.SolveLeastSquares(a, b, tcqr.SolveOptions{
		QR:  tcqr.Config{Cutoff: cutoff},
		Tol: 1e-9, // the raw Vandermonde columns put the f64 floor above the default tolerance
	})
	if err != nil {
		log.Fatal(err)
	}
	report("with column scaling (default)", sol, a, coef, gradScale)

	// With scaling disabled: t⁴ values up to 2.56e6 overflow binary16
	// (max 65504). Under the default HazardFail policy the overflow is
	// detected and surfaces as a typed error instead of a destroyed fit.
	fmt.Println("without column scaling (§3.5 ablation)")
	_, err = tcqr.SolveLeastSquares(a, b, tcqr.SolveOptions{
		QR:  tcqr.Config{DisableColumnScaling: true, Cutoff: cutoff},
		Tol: 1e-9,
	})
	fmt.Printf("  typed failure              : %v\n\n", err)

	// The same broken configuration under HazardFallback: the library
	// refactors with scaling re-enabled and reports what it did. The
	// refinement then cannot reach the 1e-9 tolerance on this nearly
	// degenerate basis; it keeps CGLS's best iterate and reports that too
	// ("keep best iterate").
	solRec, err := tcqr.SolveLeastSquares(a, b, tcqr.SolveOptions{
		QR:  tcqr.Config{DisableColumnScaling: true, Cutoff: cutoff, OnHazard: tcqr.HazardFallback},
		Tol: 1e-9,
	})
	if err != nil {
		log.Fatal(err)
	}
	report("without scaling + HazardFallback (recovered)", solRec, a, coef, gradScale)
	for _, h := range solRec.Hazards {
		fmt.Printf("  hazard: %s\n", h)
	}
}

// report prints the fit quality. The raw polynomial basis on [0, 100] is
// numerically nearly degenerate, so individual coefficients are not well
// determined by the data; the recovered *signal* A·x is — that is the
// quantity reported (RMS prediction error against the noiseless truth).
func report(label string, sol *tcqr.LeastSquaresResult, a *tcqr.Matrix, truth []float64, gradScale float64) {
	fmt.Printf("%s\n", label)
	fmt.Printf("  fp16 overflow events       : %d\n", sol.Factorization.EngineStats.Overflows)
	fmt.Printf("  CGLS iterations            : %d (converged: %v)\n", sol.Iterations, sol.Converged)
	fmt.Printf("  rel. optimality ‖Aᵀr‖/‖Aᵀb‖: %.2e\n", sol.Optimality/gradScale)

	var sum float64
	bad := false
	for i := 0; i < a.Rows && !bad; i++ {
		var pred, want float64
		for j := 0; j < a.Cols; j++ {
			pred += a.At(i, j) * sol.X[j]
			want += a.At(i, j) * truth[j]
		}
		d := pred - want
		if math.IsNaN(d) || math.IsInf(d, 0) {
			bad = true
			break
		}
		sum += d * d
	}
	if bad || math.IsNaN(sol.Optimality) {
		fmt.Printf("  RMS prediction error       : NaN/Inf — the fit was destroyed by fp16 overflow\n\n")
		return
	}
	fmt.Printf("  RMS prediction error       : %.2e (noise level %.0e)\n\n", math.Sqrt(sum/float64(a.Rows)), noiseLevel)
}
