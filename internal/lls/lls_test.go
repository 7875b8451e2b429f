package lls

import (
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/accuracy"
	"tcqr/internal/dense"
	"tcqr/internal/matgen"
	"tcqr/internal/rgs"
	"tcqr/internal/tcsim"
)

func problem(seed int64, m, n int, cond float64, dist matgen.Dist, resNorm float64) *matgen.LLSProblem {
	rng := rand.New(rand.NewSource(seed))
	a := matgen.WithCond(rng, m, n, cond, dist)
	return matgen.NewLLSProblem(rng, a, resNorm)
}

// factor narrows A to float32 and factors it with RGSQRF.
func factor(t *testing.T, a *dense.M64, opts rgs.Options) *rgs.Result {
	t.Helper()
	f, err := rgs.Factor(dense.ToF32(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDirectQRFloat64(t *testing.T) {
	p := problem(1, 200, 50, 1e3, matgen.Geometric, 0.5)
	x := DirectQR(p.A, p.B)
	if opt := accuracy.LLSOptimality(p.A, x, p.B); opt > 1e-11 {
		t.Errorf("DGEQRF optimality ‖Aᵀ(Ax−b)‖ = %g", opt)
	}
	// Consistent system recovers xTrue.
	pc := problem(2, 100, 30, 10, matgen.Arithmetic, 0)
	xc := DirectQR(pc.A, pc.B)
	for i := range xc {
		if math.Abs(xc[i]-pc.XTrue[i]) > 1e-10 {
			t.Fatalf("x[%d] = %v, want %v", i, xc[i], pc.XTrue[i])
		}
	}
}

func TestDirectQRPrecisionOrdering(t *testing.T) {
	p := problem(3, 300, 80, 1e3, matgen.Arithmetic, 0.1)
	x64 := DirectQR(p.A, p.B)
	a32 := dense.ToF32(p.A)
	b32 := make([]float32, len(p.B))
	for i, v := range p.B {
		b32[i] = float32(v)
	}
	x32 := DirectQR(a32, b32)
	x32w := make([]float64, len(x32))
	for i, v := range x32 {
		x32w[i] = float64(v)
	}
	opt64 := accuracy.LLSOptimality(p.A, x64, p.B)
	opt32 := accuracy.LLSOptimality(p.A, x32w, p.B)
	if opt32 < 100*opt64 {
		t.Errorf("SCuSOLVE (%g) should be far less accurate than DCuSOLVE (%g)", opt32, opt64)
	}
}

// TestFigure9Ordering reproduces the Figure 9 accuracy ladder at test
// scale: RGSQRF direct ≫ SCuSOLVE > RGSQRF+CGLS ≈ DCuSOLVE.
func TestFigure9Ordering(t *testing.T) {
	p := problem(4, 512, 128, 1e3, matgen.Cluster2, 0.2)

	// RGSQRF direct (half precision factors).
	f := factor(t, p.A, rgs.Options{Cutoff: 32})
	sol, err := SolveWithFactor(f, p.A, p.B, SolveOptions{Method: MethodDirect})
	if err != nil {
		t.Fatal(err)
	}
	optRGS := accuracy.LLSOptimality(p.A, sol.X, p.B)

	// SCuSOLVE.
	a32 := dense.ToF32(p.A)
	b32 := make([]float32, len(p.B))
	for i, v := range p.B {
		b32[i] = float32(v)
	}
	x32 := DirectQR(a32, b32)
	x32w := make([]float64, len(x32))
	for i, v := range x32 {
		x32w[i] = float64(v)
	}
	optS := accuracy.LLSOptimality(p.A, x32w, p.B)

	// DCuSOLVE.
	optD := accuracy.LLSOptimality(p.A, DirectQR(p.A, p.B), p.B)

	// RGSQRF+CGLS.
	solC, err := SolveWithFactor(f, p.A, p.B, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	optC := accuracy.LLSOptimality(p.A, solC.X, p.B)

	if optRGS < 10*optS {
		t.Errorf("RGSQRF direct (%g) should be well below SCuSOLVE accuracy (%g)", optRGS, optS)
	}
	if optC > 100*optD {
		t.Errorf("RGSQRF+CGLS (%g) should reach DCuSOLVE accuracy (%g)", optC, optD)
	}
	if !solC.Converged {
		t.Error("CGLS did not converge")
	}
	if solC.Iterations > 50 {
		t.Errorf("CGLS took %d iterations on κ=10³", solC.Iterations)
	}
}

// TestCGLSIterationsGrowWithCond reproduces the Section 4.2 observation
// that harder spectra need more refinement iterations.
func TestCGLSIterationsGrowWithCond(t *testing.T) {
	iters := func(cond float64) int {
		p := problem(5, 512, 128, cond, matgen.Geometric, 0.1)
		f := factor(t, p.A, rgs.Options{Cutoff: 32})
		sol, err := SolveWithFactor(f, p.A, p.B, SolveOptions{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		return sol.Iterations
	}
	easy := iters(1e1)
	hard := iters(1e5)
	if hard <= easy {
		t.Errorf("iterations should grow with cond: κ=10 → %d, κ=1e5 → %d", easy, hard)
	}
}

func TestCGLSPreconditioningHelps(t *testing.T) {
	p := problem(6, 512, 128, 1e4, matgen.Geometric, 0.1)
	a32 := dense.ToF32(p.A)
	f, err := rgs.Factor(a32, rgs.Options{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	pre := CGLS(p.A, p.B, dense.ToF64(f.R), 1e-12, 500)
	plain := CGLS(p.A, p.B, nil, 1e-12, 500)
	if !pre.Converged {
		t.Fatal("preconditioned CGLS did not converge")
	}
	if plain.Converged && plain.Iterations <= pre.Iterations {
		t.Errorf("preconditioning should cut iterations: plain %d, preconditioned %d",
			plain.Iterations, pre.Iterations)
	}
}

func TestLSQRMatchesCGLS(t *testing.T) {
	p := problem(7, 400, 100, 1e3, matgen.Arithmetic, 0.3)
	a32 := dense.ToF32(p.A)
	f, err := rgs.Factor(a32, rgs.Options{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	r64 := dense.ToF64(f.R)
	c := CGLS(p.A, p.B, r64, 1e-13, 200)
	l := LSQR(p.A, p.B, r64, 1e-13, 200)
	if !c.Converged || !l.Converged {
		t.Fatalf("convergence: cgls=%v lsqr=%v", c.Converged, l.Converged)
	}
	optC := accuracy.LLSOptimality(p.A, c.X, p.B)
	optL := accuracy.LLSOptimality(p.A, l.X, p.B)
	if optL > 1e3*optC && optL > 1e-9 {
		t.Errorf("LSQR (%g) far from CGLS (%g)", optL, optC)
	}
}

func TestNormalEquations(t *testing.T) {
	// Well-conditioned: fine in float64.
	p := problem(9, 200, 40, 10, matgen.Arithmetic, 0.1)
	x, err := NormalEquations(p.A, p.B)
	if err != nil {
		t.Fatal(err)
	}
	if opt := accuracy.LLSOptimality(p.A, x, p.B); opt > 1e-10 {
		t.Errorf("normal equations optimality %g", opt)
	}
	// Ill-conditioned in float32: κ² overwhelms ε₃₂; expect failure or a
	// much less accurate result than QR (this is why the paper uses QR).
	ph := problem(10, 300, 64, 3e4, matgen.Geometric, 0.1)
	a32 := dense.ToF32(ph.A)
	b32 := make([]float32, len(ph.B))
	for i, v := range ph.B {
		b32[i] = float32(v)
	}
	xn, err := NormalEquations(a32, b32)
	if err == nil {
		xw := make([]float64, len(xn))
		for i, v := range xn {
			xw[i] = float64(v)
		}
		optNE := accuracy.LLSOptimality(ph.A, xw, ph.B)
		xq := DirectQR(a32, b32)
		xqw := make([]float64, len(xq))
		for i, v := range xq {
			xqw[i] = float64(v)
		}
		optQR := accuracy.LLSOptimality(ph.A, xqw, ph.B)
		if optNE < optQR {
			t.Errorf("normal equations (%g) should not beat QR (%g) at κ=3e4 in float32", optNE, optQR)
		}
	}
}

func TestSolveWithFactorReuse(t *testing.T) {
	p := problem(11, 300, 64, 1e2, matgen.Cluster2, 0.1)
	a32 := dense.ToF32(p.A)
	f, err := rgs.Factor(a32, rgs.Options{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Two different right-hand sides against one factorization.
	for seed := int64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		b := make([]float64, 300)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		sol, err := SolveWithFactor(f, p.A, b, SolveOptions{Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		if opt := accuracy.LLSOptimality(p.A, sol.X, b); opt > 1e-9 {
			t.Errorf("rhs %d: optimality %g", seed, opt)
		}
	}
	// Shape mismatch is rejected.
	if _, err := SolveWithFactor(f, dense.New[float64](10, 5), make([]float64, 10), SolveOptions{}); err == nil {
		t.Error("shape mismatch not rejected")
	}
}

func TestSolveEngineMatters(t *testing.T) {
	// With the FP32 engine, the R factor preconditions better, so CGLS
	// should need no more iterations than with the TC engine.
	p := problem(12, 512, 128, 1e4, matgen.Geometric, 0.1)
	tcF := factor(t, p.A, rgs.Options{Cutoff: 32, Engine: &tcsim.TensorCore{}})
	tcSol, err := SolveWithFactor(tcF, p.A, p.B, SolveOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	fpF := factor(t, p.A, rgs.Options{Cutoff: 32, Engine: &tcsim.FP32{}})
	fpSol, err := SolveWithFactor(fpF, p.A, p.B, SolveOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if fpSol.Iterations > tcSol.Iterations {
		t.Errorf("FP32-preconditioned CGLS (%d iters) should not need more than TC (%d iters)",
			fpSol.Iterations, tcSol.Iterations)
	}
}

func TestMethodString(t *testing.T) {
	if MethodCGLS.String() != "RGSQRF+CGLS" || MethodDirect.String() != "RGSQRF direct" {
		t.Error("method names wrong")
	}
}

func TestCGLSZeroRHS(t *testing.T) {
	p := problem(13, 100, 20, 10, matgen.Arithmetic, 0)
	zero := make([]float64, 100)
	res := CGLS(p.A, zero, nil, 1e-12, 50)
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("zero rhs: %+v", res)
	}
	for _, v := range res.X {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
	}
}

func blasGemmHelper(a, x, b *dense.M64) {
	for j := 0; j < x.Cols; j++ {
		col := b.Col(j)
		for l := 0; l < a.Cols; l++ {
			v := x.At(l, j)
			ac := a.Col(l)
			for i := range col {
				col[i] += ac[i] * v
			}
		}
	}
}

func TestSolveMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := matgen.WithCond(rng, 400, 96, 1e3, matgen.Cluster2)
	const nrhs = 7
	b := matgen.Normal(rng, 400, nrhs)
	f, err := rgs.Factor(dense.ToF32(a), rgs.Options{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveMultiWithFactor(f, a, b, SolveOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < nrhs; j++ {
		if !sol.Converged[j] {
			t.Errorf("rhs %d did not converge (%d iters)", j, sol.Iterations[j])
		}
		if opt := accuracy.LLSOptimality(a, sol.X.Col(j), b.Col(j)); opt > 1e-9 {
			t.Errorf("rhs %d optimality %g", j, opt)
		}
	}
	// Matches the single-RHS pipeline on column 0 (same factor, same CGLS).
	single, err := SolveWithFactor(f, a, b.Col(0), SolveOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range single.X {
		if math.Abs(single.X[i]-sol.X.At(i, 0)) > 1e-12 {
			t.Fatalf("multi vs single refined mismatch at %d", i)
		}
	}
	// Shape validation.
	if _, err := SolveMultiWithFactor(f, a, dense.New[float64](3, 2), SolveOptions{}); err == nil {
		t.Error("row mismatch not rejected")
	}
}

func TestCGLSOperatorWithDensePreconditioner(t *testing.T) {
	// An ill-conditioned system preconditioned by the R factor of its own
	// fp16-engine RGSQRF — the paper's preconditioning idea — against plain
	// CGLS on the same data.
	rng := rand.New(rand.NewSource(51))
	rows, cols := 400, 48
	a := matgen.WithCond(rng, rows, cols, 1e4, matgen.Geometric)
	f, err := rgs.Factor(dense.ToF32(a), rgs.Options{Cutoff: 16})
	if err != nil {
		t.Fatal(err)
	}
	r64 := dense.ToF64(f.R)
	b := make([]float64, rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	pre := CGLS(a, b, r64, 1e-12, 200)
	plain := CGLS(a, b, nil, 1e-12, 2000)
	if !pre.Converged {
		t.Fatal("preconditioned CGLS did not converge")
	}
	if plain.Converged && plain.Iterations <= pre.Iterations {
		t.Errorf("preconditioning should cut iterations: %d vs %d", plain.Iterations, pre.Iterations)
	}
}
