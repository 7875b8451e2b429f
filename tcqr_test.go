package tcqr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tcqr/internal/accuracy"
	"tcqr/internal/dense"
	"tcqr/internal/lls"
	"tcqr/internal/matgen"
	"tcqr/internal/tcsim"
)

func testMatrix(seed int64, m, n int, cond float64) *Matrix32 {
	rng := rand.New(rand.NewSource(seed))
	return ToFloat32(matgen.WithCond(rng, m, n, cond, matgen.Arithmetic))
}

func TestMatrixConstructors(t *testing.T) {
	m := NewMatrix(3, 2)
	m.Set(2, 1, 5)
	if m.At(2, 1) != 5 {
		t.Fatal("NewMatrix indexing")
	}
	w := FromColMajor(2, 2, []float64{1, 2, 3, 4})
	if w.At(1, 0) != 2 || w.At(0, 1) != 3 {
		t.Fatal("FromColMajor layout")
	}
	f32 := ToFloat32(w)
	back := dense.ToF64(f32)
	for i := range back.Data {
		if back.Data[i] != w.Data[i] {
			t.Fatal("precision round trip")
		}
	}
	m32 := NewMatrix32(4, 4)
	if m32.Rows != 4 {
		t.Fatal("NewMatrix32")
	}
}

func TestFactorizeDefaults(t *testing.T) {
	a := testMatrix(1, 384, 160, 100)
	f, err := Factorize(a, Config{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	if be := f.BackwardError(a); be > 5e-3 {
		t.Errorf("backward error %g", be)
	}
	if f.ColumnScales == nil {
		t.Error("column scaling should be on by default")
	}
	if f.EngineStats.GemmCalls == 0 || f.EngineStats.Flops == 0 {
		t.Error("engine stats not collected")
	}
	if !accuracy.UpperTriangular(f.R) {
		t.Error("R not upper triangular")
	}
}

func TestFactorizeAblations(t *testing.T) {
	a := testMatrix(2, 384, 128, 100)
	tc, err := Factorize(a, Config{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Factorize(a, Config{Cutoff: 32, Engine: EngineFP32})
	if err != nil {
		t.Fatal(err)
	}
	if fp.EngineStats.GemmCalls != 0 {
		t.Error("FP32 run should not report neural-engine stats")
	}
	if tc.BackwardError(a) < 10*fp.BackwardError(a) {
		t.Errorf("TC error (%g) should exceed FP32 error (%g)", tc.BackwardError(a), fp.BackwardError(a))
	}
	// Householder panel variant works.
	hh, err := Factorize(a, Config{Cutoff: 32, Panel: PanelHouseholder})
	if err != nil {
		t.Fatal(err)
	}
	if be := hh.BackwardError(a); be > 5e-3 {
		t.Errorf("householder panel backward error %g", be)
	}
}

func TestOrthonormalize(t *testing.T) {
	a := testMatrix(3, 512, 128, 1e5)
	two, err := Factorize(a, Config{Cutoff: 32, ReOrthogonalize: true})
	if err != nil {
		t.Fatal(err)
	}
	q := two.Q
	if oe := accuracy.OrthoError(q); oe > 0.05 {
		t.Errorf("orthogonality after reortho %g", oe)
	}
	// Single-pass factorization of the same matrix is much less orthogonal.
	one, err := Factorize(a, Config{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	if one.OrthogonalityError() < 10*accuracy.OrthoError(q) {
		t.Errorf("reortho should improve orthogonality by ≥10×: %g vs %g",
			one.OrthogonalityError(), accuracy.OrthoError(q))
	}
}

func TestSolveLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := matgen.WithCond(rng, 512, 128, 1e3, matgen.Cluster2)
	p := matgen.NewLLSProblem(rng, a, 0.3)

	sol, err := SolveLeastSquares(p.A, p.B, SolveOptions{QR: Config{Cutoff: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Error("CGLS did not converge")
	}
	if sol.Optimality > 1e-9 {
		t.Errorf("optimality %g", sol.Optimality)
	}
	// The unrefined direct solve is orders of magnitude worse.
	direct, err := SolveLeastSquares(p.A, p.B, SolveOptions{QR: Config{Cutoff: 32}, Method: RefineNone})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Optimality < 1e4*sol.Optimality {
		t.Errorf("direct optimality %g should dwarf refined %g", direct.Optimality, sol.Optimality)
	}
	// Factor reuse across right-hand sides.
	b2 := make([]float64, 512)
	for i := range b2 {
		b2[i] = rng.NormFloat64()
	}
	sol2, err := SolveLeastSquaresWithFactor(sol.Factorization, p.A, b2, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Optimality > 1e-9 {
		t.Errorf("reused-factor optimality %g", sol2.Optimality)
	}
}

func TestSolveMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := matgen.WithCond(rng, 400, 100, 1e2, matgen.Geometric)
	p := matgen.NewLLSProblem(rng, a, 0.1)
	for _, m := range []RefineMethod{RefineCGLS, RefineLSQR, RefineNone} {
		sol, err := SolveLeastSquares(p.A, p.B, SolveOptions{QR: Config{Cutoff: 32}, Method: m, Tol: 1e-6})
		if err != nil {
			t.Fatalf("method %d: %v", m, err)
		}
		// All methods produce a usable solution; refined ones much better.
		limit := 1e-3
		if m == RefineNone {
			limit = 10
		}
		if sol.Optimality > limit {
			t.Errorf("method %d: optimality %g", m, sol.Optimality)
		}
	}
	// Method 2, classical refinement until it was retired, is refused, not
	// answered by another method.
	f, err := Factorize(ToFloat32(p.A), Config{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	const want = "tcqr: lls: unknown method 2"
	if _, err := SolveLeastSquaresWithFactor(f, p.A, p.B, SolveOptions{Method: 2}); err == nil || err.Error() != want {
		t.Errorf("method 2: error %v, want %s", err, want)
	}
}

// TestLSQRConvergesWhereCGLSDiverges pins why RefineLSQR exists: on a bf16
// factor of a clustered-spectrum input at κ = 1e6 (the measured class: fp16
// and bf16 factors, κ ≥ 1e6, arithmetic or clustered spectra) CGLS trips its
// divergence guard within a few iterations, while LSQR converges to within
// 10× of float64 Householder's ‖Aᵀr‖.
func TestLSQRConvergesWhereCGLSDiverges(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := matgen.WithCond(rng, 1024, 128, 1e6, matgen.Cluster2)
	b := matgen.NewLLSProblem(rng, a, 0).B
	f, err := Factorize(ToFloat32(a), Config{Engine: EngineBF16, Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	householder := accuracy.LLSOptimality(a, lls.DirectQR(a.Clone(), append([]float64(nil), b...)), b)
	cg, err := SolveLeastSquaresWithFactor(f, a, b, SolveOptions{Method: RefineCGLS})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(cg.Hazards, func(h Hazard) bool { return h.Kind == HazardDivergence }) {
		t.Errorf("CGLS: %d iterations, ‖Aᵀr‖ %.3g, hazards %v; want a divergence", cg.Iterations, cg.Optimality, cg.Hazards)
	}
	ls, err := SolveLeastSquaresWithFactor(f, a, b, SolveOptions{Method: RefineLSQR})
	if err != nil {
		t.Fatal(err)
	}
	if !ls.Converged || ls.Optimality > 10*householder {
		t.Errorf("LSQR: converged %v in %d iterations at ‖Aᵀr‖ %.3g, want converged within 10× of Householder's %.3g",
			ls.Converged, ls.Iterations, ls.Optimality, householder)
	}
	t.Logf("CGLS %d iterations at %.3g; LSQR %d at %.3g; Householder %.3g",
		cg.Iterations, cg.Optimality, ls.Iterations, ls.Optimality, householder)
}

func TestLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := ToFloat32(matgen.WithCond(rng, 1024, 64, 1e6, matgen.Arithmetic))
	lr, err := LowRank(a, 16, Config{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Rank != 16 || lr.U.Cols != 16 || len(lr.S) != 16 || lr.V.Cols != 16 {
		t.Fatalf("rank bookkeeping: %d %d %d %d", lr.Rank, lr.U.Cols, len(lr.S), lr.V.Cols)
	}
	sigma := matgen.SingularValues(64, 1e6, matgen.Arithmetic)
	eOpt := 0.0
	var tail, tot float64
	for i, s := range sigma {
		tot += s * s
		if i >= 16 {
			tail += s * s
		}
	}
	eOpt = math.Sqrt(tail / tot)
	if e := lr.Error(a); e > eOpt*1.02+1e-3 {
		t.Errorf("rank-16 error %g vs optimal %g", e, eOpt)
	}
	// The full-rank approximation is close to A.
	full, err := LowRank(a, 64, Config{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	if e := full.Error(a); e > 5e-3 {
		t.Errorf("full-rank error %g", e)
	}
	// Invalid rank.
	if _, err := LowRank(a, 0, Config{}); err == nil {
		t.Error("rank 0 must be rejected")
	}
	// Oversized rank clamps.
	if lr2, err := LowRank(a, 1000, Config{Cutoff: 32}); err != nil || lr2.Rank != 64 {
		t.Errorf("rank clamp: %v %d", err, lr2.Rank)
	}
	// The full-rank approximation's S is the whole spectrum: its endpoints
	// are the generator's σ₁ = 1 and σ_n = 1/κ.
	g := ToFloat32(matgen.WithCond(rand.New(rand.NewSource(7)), 256, 32, 100, matgen.Geometric))
	spec, err := LowRank(g, g.Cols, Config{Cutoff: 16})
	if err != nil {
		t.Fatal(err)
	}
	if s := spec.S; len(s) != 32 || math.Abs(float64(s[0])-1) > 1e-2 || math.Abs(float64(s[31])-0.01) > 1e-3 {
		t.Errorf("spectrum of %d values, endpoints %v %v; want 32 from 1 to 0.01", len(s), s[0], s[len(s)-1])
	}
}

func TestEngineStatsAndOverflowPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := ToFloat32(matgen.BadlyScaled(rng, 384, 96, 7))
	// With scaling (default): no overflows, no hazards.
	f, err := Factorize(a, Config{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	if f.EngineStats.Overflows != 0 {
		t.Errorf("scaled factorization overflowed %d times", f.EngineStats.Overflows)
	}
	if len(f.Hazards) != 0 {
		t.Errorf("scaled factorization reported hazards: %v", f.Hazards)
	}
	// Without scaling, the fp16 operands overflow; HazardFail (default)
	// turns that into a typed error instead of NaN factors.
	_, err = Factorize(a, Config{Cutoff: 32, DisableColumnScaling: true})
	if err == nil {
		t.Fatal("expected a typed error for unscaled overflow")
	}
	if !errors.Is(err, ErrOverflow) && !errors.Is(err, ErrBreakdown) {
		t.Errorf("unscaled overflow: got %v, want ErrOverflow or ErrBreakdown", err)
	}
	// HazardFallback recovers by re-enabling scaling and reports the retry.
	f2, err := Factorize(a, Config{Cutoff: 32, DisableColumnScaling: true, OnHazard: HazardFallback})
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Hazards) == 0 {
		t.Fatal("fallback recovery should report hazards")
	}
	if be := f2.BackwardError(a); be > 5e-3 {
		t.Errorf("recovered backward error %g", be)
	}
	if f2.ColumnScales == nil {
		t.Error("recovery should have re-enabled column scaling")
	}
}

func TestFactorizeRejectsWide(t *testing.T) {
	if _, err := Factorize(NewMatrix32(3, 5), Config{}); err == nil {
		t.Error("wide input must be rejected")
	}
}

// TestFactorizeEitherWidth: Factorize and LowRank take a float64 matrix
// and return, bit for bit, what they return for its float32 narrowing —
// factors, scales, hazards and engine statistics, or the same error — on
// every engine and panel under both policies, a breakdown input included.
func TestFactorizeEitherWidth(t *testing.T) {
	if _, err := Factorize((*Matrix)(nil), Config{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("nil float64 matrix: %v, want ErrEmpty", err)
	}
	// elems lists the elements of each matrix column by column, then tail.
	elems := func(tail []float32, ms ...*Matrix32) []float32 {
		var out []float32
		for _, m := range ms {
			for j := range m.Cols {
				out = append(out, m.Col(j)...)
			}
		}
		return append(out, tail...)
	}
	rng := rand.New(rand.NewSource(39))
	inputs := []struct {
		name string
		a    *Matrix
	}{
		{"conditioned", matgen.WithCond(rng, 256, 48, 1e3, matgen.Arithmetic)},
		{"badly-scaled", matgen.BadlyScaled(rng, 256, 48, 8)},
		{"zero-column", matgen.WithZeroColumns(rng, 256, 48, 7)},
	}
	breakdowns := 0
	for _, in := range inputs {
		a32 := ToFloat32(in.a)
		for _, e := range tcsim.Kinds() {
			for _, p := range []PanelAlgorithm{PanelCAQR, PanelHouseholder, PanelMGS} {
				for _, pol := range []HazardPolicy{HazardFail, HazardFallback} {
					c := Config{Engine: e, Panel: p, Cutoff: 16, OnHazard: pol}
					name := fmt.Sprintf("%s/%v/%v/%v", in.name, e, p, pol)
					got, gerr := Factorize(in.a, c)
					want, werr := Factorize(a32, c)
					if gerr != nil || werr != nil {
						if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
							t.Errorf("%s: float64 input: %v; its narrowing: %v", name, gerr, werr)
						}
						breakdowns++
						continue
					}
					if !bitsEqual(elems(got.ColumnScales, got.Q, got.R), elems(want.ColumnScales, want.Q, want.R)) {
						t.Errorf("%s: factors differ from the narrowing's", name)
					}
					if !slices.Equal(got.Hazards, want.Hazards) || got.EngineStats != want.EngineStats ||
						got.Reorthogonalized != want.Reorthogonalized {
						t.Errorf("%s: hazards %v, stats %+v; the narrowing's %v, %+v",
							name, got.Hazards, got.EngineStats, want.Hazards, want.EngineStats)
					}
				}
			}
		}
		c := Config{Cutoff: 16, OnHazard: HazardFallback}
		got, gerr := LowRank(in.a, 5, c)
		want, werr := LowRank(a32, 5, c)
		if gerr != nil || werr != nil {
			t.Errorf("%s: LowRank: float64 input: %v; its narrowing: %v", in.name, gerr, werr)
			continue
		}
		if !bitsEqual(elems(got.S, got.U, got.V), elems(want.S, want.U, want.V)) || got.Rank != want.Rank ||
			!slices.Equal(got.Hazards, want.Hazards) {
			t.Errorf("%s: LowRank of the float64 input differs from its narrowing's", in.name)
		}
	}
	if breakdowns == 0 {
		t.Error("no input broke down under HazardFail")
	}
}

func TestEngineBF16(t *testing.T) {
	a := testMatrix(9, 384, 128, 100)
	bf, err := Factorize(a, Config{Cutoff: 32, Engine: EngineBF16})
	if err != nil {
		t.Fatal(err)
	}
	fp16, err := Factorize(a, Config{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	if bf.EngineStats.GemmCalls == 0 {
		t.Error("BF16 engine stats missing")
	}
	// The bfloat16 engine is coarser than the fp16 one.
	if bf.BackwardError(a) < fp16.BackwardError(a) {
		t.Errorf("BF16 error (%g) should exceed FP16 error (%g)",
			bf.BackwardError(a), fp16.BackwardError(a))
	}
}

func TestPanelNamesRoundTrip(t *testing.T) {
	for _, p := range []PanelAlgorithm{PanelCAQR, PanelHouseholder, PanelMGS} {
		if got, err := ParsePanel(p.String()); err != nil || got != p {
			t.Errorf("ParsePanel(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if p, err := ParsePanel(""); err != nil || p != PanelCAQR {
		t.Errorf(`ParsePanel("") = %v, %v; want the default caqr`, p, err)
	}
	if _, err := ParsePanel("lu"); err == nil {
		t.Error("unknown panel name accepted")
	}
	for _, p := range []PanelAlgorithm{2, 99} {
		if got := p.String(); got != "other" {
			t.Errorf("panel %d prints %q, want other", int(p), got)
		}
	}
	// 2 was the retired Cholesky QR panel: MGS keeps 3, so its cache keys and
	// spill files keep their names.
	if PanelMGS != 3 {
		t.Errorf("PanelMGS = %d, want 3", int(PanelMGS))
	}
	const want = `unknown panel "cholqr" (want one of [caqr householder mgs])`
	if _, err := ParsePanel("cholqr"); err == nil || err.Error() != want {
		t.Errorf(`ParsePanel("cholqr") = %v, want %s`, err, want)
	}
}
