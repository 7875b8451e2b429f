package lls

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tcqr/internal/accuracy"
	"tcqr/internal/dense"
	"tcqr/internal/gram"
	"tcqr/internal/hazard"
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
	if !solC.Converged() {
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
	pre := CGLS(p.A, p.B, f.R, 1e-12, 500)
	plain := CGLS(p.A, p.B, nil, 1e-12, 500)
	if !pre.Converged() {
		t.Fatal("preconditioned CGLS did not converge")
	}
	if plain.Converged() && plain.Iterations <= pre.Iterations {
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
	c := CGLS(p.A, p.B, f.R, 1e-13, 200)
	l := LSQR(p.A, p.B, f.R, 1e-13, 200)
	if !c.Converged() || !l.Converged() {
		t.Fatalf("convergence: cgls=%v lsqr=%v", c.Converged(), l.Converged())
	}
	optC := accuracy.LLSOptimality(p.A, c.X, p.B)
	optL := accuracy.LLSOptimality(p.A, l.X, p.B)
	if optL > 1e3*optC && optL > 1e-9 {
		t.Errorf("LSQR (%g) far from CGLS (%g)", optL, optC)
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
	// Method 2, classical refinement until it was retired, is refused, not
	// answered by another method.
	const want = "lls: unknown method 2"
	if _, err := SolveWithFactor(f, p.A, p.B, SolveOptions{Method: 2}); err == nil || err.Error() != want {
		t.Errorf("method 2: error %v, want %s", err, want)
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
	if !res.Converged() || res.Iterations != 0 {
		t.Errorf("zero rhs: %+v", res)
	}
	for _, v := range res.X {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
	}
}

// TestNoProgressNeverSettles: a run whose gradient norm never improves on
// ‖s_0‖ ends StopStagnated, with x₀ and a hazard, whatever the caller's tol. The
// settle rule needs an iterate whose gradient reaches the attainable float64
// floor, and a step that never moves x (α = 0) or a NaN gradient never
// does, whatever the tol. The runs: an A scaled to 1e100 without a
// preconditioner, whose ‖A·t‖² overflows, so every step is α = 0 and every
// gradient norm equals ‖s_0‖, at tol 0.5; a b scaled to 1e200, whose ‖s_0‖
// is +Inf and whose later gradient norms are NaN, at the default tol and at
// tol 0.5; and the zero-column input the Householder rung factors, whose
// gradient norms are all NaN, at tol 0.5.
func TestNoProgressNeverSettles(t *testing.T) {
	scaled := func(v []float64, by float64) {
		for i := range v {
			v[i] *= by
		}
	}
	p := problem(71, 300, 60, 1e3, matgen.Geometric, 0.1)
	r := factor(t, p.A, rgs.Options{Cutoff: 32}).R
	bigA := p.A.Clone()
	scaled(bigA.Data, 1e100)
	bigB := append([]float64(nil), p.B...)
	scaled(bigB, 1e200)
	rng := rand.New(rand.NewSource(65))
	zero := matgen.WithZeroColumns(rng, 256, 64, 5)
	zeroB := matgen.Normal(rng, 256, 1).Col(0)
	zeroR := factor(t, zero, rgs.Options{Cutoff: 32, Panel: &gram.HouseholderPanel{}}).R
	for _, tc := range []struct {
		name string
		a    *dense.M64
		b    []float64
		r    *dense.M32
		tol  float64
	}{
		{"overflowing step at tol 0.5", bigA, p.B, nil, 0.5},
		{"infinite s0 at the default tol", p.A, bigB, r, 0},
		{"infinite s0 at tol 0.5", p.A, bigB, r, 0.5},
		{"zero columns at tol 0.5", zero, zeroB, zeroR, 0.5},
	} {
		var hz hazard.Report
		// CGLS reads only R (nil: unpreconditioned); the Q is never read.
		f := &rgs.Result{Q: dense.New[float32](tc.a.Rows, tc.a.Cols), R: tc.r}
		res, err := SolveWithFactor(f, tc.a, tc.b, SolveOptions{Tol: tc.tol, Hazards: &hz})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stop != StopStagnated || res.Iterations != StagnationWindow {
			t.Errorf("%s: ran %d iterations (%v), want a full stagnation window", tc.name, res.Iterations, res.Stop)
		}
		for i, v := range res.X {
			if v != 0 {
				t.Errorf("%s: x[%d] = %g, want the x₀ = 0 no iterate improved on", tc.name, i, v)
				break
			}
		}
		if ev := hz.Events(); len(ev) != 1 || ev[0].Kind != hazard.KindStagnation || ev[0].Action != "keep best iterate" {
			t.Errorf("%s: hazards %v, want one stagnation kept at the best iterate", tc.name, ev)
		}
	}
}

// TestSolveMulti: a block of right-hand sides solved column by column over
// one shared factorization, as the block solve does. Each column converges
// to float64 optimality, the columns solved concurrently over the shared
// factor give the same bits as solved one after another (SolveWithFactor
// only reads f), and a right-hand side with the wrong number of rows is
// rejected as a shape error.
func TestSolveMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := matgen.WithCond(rng, 400, 96, 1e3, matgen.Cluster2)
	const nrhs = 7
	b := matgen.Normal(rng, 400, nrhs)
	f := factor(t, a, rgs.Options{Cutoff: 32})
	opts := SolveOptions{Tol: 1e-12}
	seq := make([]*IterResult, nrhs)
	for j := range seq {
		sol, err := SolveWithFactor(f, a, b.Col(j), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Converged() {
			t.Errorf("rhs %d did not converge (%d iters, %v)", j, sol.Iterations, sol.Stop)
		}
		if opt := accuracy.LLSOptimality(a, sol.X, b.Col(j)); opt > 1e-9 {
			t.Errorf("rhs %d optimality %g", j, opt)
		}
		seq[j] = sol
	}
	conc := make([]*IterResult, nrhs)
	errs := make([]error, nrhs)
	var wg sync.WaitGroup
	for j := range conc {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			conc[j], errs[j] = SolveWithFactor(f, a, b.Col(j), opts)
		}(j)
	}
	wg.Wait()
	for j := range conc {
		if errs[j] != nil {
			t.Fatal(errs[j])
		}
		for i, v := range conc[j].X {
			if math.Float64bits(v) != math.Float64bits(seq[j].X[i]) {
				t.Fatalf("rhs %d: concurrent x[%d] = %v, sequential %v", j, i, v, seq[j].X[i])
			}
		}
	}
	if _, err := SolveWithFactor(f, a, make([]float64, 3), opts); !errors.Is(err, hazard.ErrShape) {
		t.Errorf("row mismatch: err %v, want hazard.ErrShape", err)
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
	b := make([]float64, rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	pre := CGLS(a, b, f.R, 1e-12, 200)
	plain := CGLS(a, b, nil, 1e-12, 2000)
	if !pre.Converged() {
		t.Fatal("preconditioned CGLS did not converge")
	}
	if plain.Converged() && plain.Iterations <= pre.Iterations {
		t.Errorf("preconditioning should cut iterations: %d vs %d", plain.Iterations, pre.Iterations)
	}
}

// TestPreconditionerShapeChecked: CGLS and LSQR share one argument check, so
// a preconditioner of the wrong shape panics with the same message in both
// before any product is formed. LSQR used to skip the check and fail inside
// the triangular solve.
func TestPreconditionerShapeChecked(t *testing.T) {
	p := problem(14, 20, 5, 10, matgen.Arithmetic, 0)
	r := dense.New[float32](3, 3)
	for _, m := range []struct {
		name  string
		solve func(a *dense.M64, b []float64, r *dense.M32, tol float64, maxIter int) *IterResult
	}{{"CGLS", CGLS}, {"LSQR", LSQR}} {
		func() {
			defer func() {
				if got, want := fmt.Sprint(recover()), "lls: preconditioner is 3x3, want 5x5"; got != want {
					t.Errorf("%s panics with %q, want %q", m.name, got, want)
				}
			}()
			m.solve(p.A, p.B, r, 0, 0)
		}()
	}
}
