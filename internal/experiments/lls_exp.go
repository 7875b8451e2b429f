package experiments

import (
	"fmt"
	"math/rand"

	"tcqr/internal/accuracy"
	"tcqr/internal/dense"
	"tcqr/internal/lls"
	"tcqr/internal/matgen"
	"tcqr/internal/perfmodel"
	"tcqr/internal/rgs"
)

// MatrixType enumerates the Figure 8 panels (Section 4.2's five matrix
// families, ill-conditioned ones at two condition numbers → 8 panels a–h).
type MatrixType struct {
	Name string
	Cond float64     // 0 for the elementwise families
	Dist matgen.Dist // valid when Cond > 0
	Kind int         // 0 = uniform(0,1), 1 = uniform(-1,1), 2 = normal, 3 = spectral
	// Stress marks the paper's hard case (Section 4.2.2): the geometric
	// distribution at large κ, where CGLS hits the iteration cap before
	// reaching double precision and the speedup evaporates. The paper
	// recommends DCuSOLVE there; the experiment reproduces the blow-up.
	Stress bool
}

// Fig8Panels lists the eight panels of Figure 8.
var Fig8Panels = []MatrixType{
	{Name: "a) uniform(0,1)", Kind: 0},
	{Name: "b) uniform(-1,1)", Kind: 1},
	{Name: "c) normal(0,1)", Kind: 2},
	{Name: "d) geometric k=1e3", Kind: 3, Cond: 1e3, Dist: matgen.Geometric},
	{Name: "e) geometric k=1e6 (stress)", Kind: 3, Cond: 1e6, Dist: matgen.Geometric, Stress: true},
	{Name: "f) arithmetic k=1e3", Kind: 3, Cond: 1e3, Dist: matgen.Arithmetic},
	{Name: "g) arithmetic k=1e6", Kind: 3, Cond: 1e6, Dist: matgen.Arithmetic},
	{Name: "h) cluster2 k=1e6", Kind: 3, Cond: 1e6, Dist: matgen.Cluster2},
}

// generate materializes a panel's matrix at the given size.
func (mt MatrixType) generate(rng *rand.Rand, m, n int) *dense.M64 {
	switch mt.Kind {
	case 0:
		return matgen.Uniform01(rng, m, n)
	case 1:
		return matgen.UniformSym(rng, m, n)
	case 2:
		return matgen.Normal(rng, m, n)
	default:
		return matgen.WithCond(rng, m, n, mt.Cond, mt.Dist)
	}
}

// Fig8Row is one panel of Figure 8: the measured CGLS iteration count (at
// the numeric scale) plugged into the V100 time model at paper scale.
type Fig8Row struct {
	Panel      MatrixType
	Iterations int
	Converged  bool
	Optimality float64
	// Modelled times (ms) at the paper-scale shape.
	RGSQRFCGLSMs, SCuSolveMs, DCuSolveMs float64
	SpeedupS, SpeedupD                   float64
}

// Fig8Result is the whole figure.
type Fig8Result struct {
	Scale          Scale
	PaperM, PaperN float64
	Rows           []Fig8Row
}

// Fig8 measures refinement iteration counts per matrix family at the
// numeric scale and composes paper-scale times from the device model.
func Fig8(sc Scale) *Fig8Result {
	out := &Fig8Result{Scale: sc, PaperM: 32768, PaperN: 16384}
	for _, p := range Fig8Panels {
		rng := rand.New(rand.NewSource(sc.Seed))
		a := p.generate(rng, sc.LLSM, sc.LLSN)
		prob := matgen.NewLLSProblem(rng, a, 0.1)
		f, err := rgs.Factor(dense.ToF32(prob.A), rgs.Options{Cutoff: sc.Cutoff})
		if err != nil {
			panic(err)
		}
		sol, err := lls.SolveWithFactor(f, prob.A, prob.B, lls.SolveOptions{Tol: 1e-12})
		if err != nil {
			panic(err)
		}
		times := perfmodel.LLSTimes(out.PaperM, out.PaperN, sol.Iterations, perfmodel.PaperConfig)
		out.Rows = append(out.Rows, Fig8Row{
			Panel:        p,
			Iterations:   sol.Iterations,
			Converged:    sol.Converged(),
			Optimality:   accuracy.LLSOptimality(prob.A, sol.X, prob.B),
			RGSQRFCGLSMs: times.RGSQRFCGLS * 1e3,
			SCuSolveMs:   times.SCuSolve * 1e3,
			DCuSolveMs:   times.DCuSolve * 1e3,
			SpeedupS:     times.SCuSolve / times.RGSQRFCGLS,
			SpeedupD:     times.DCuSolve / times.RGSQRFCGLS,
		})
	}
	return out
}

// Render formats Figure 8.
func (r *Fig8Result) Render() string {
	t := &table{header: []string{"matrix type", "iters", "RGSQRF+CGLS (ms)", "SCuSOLVE (ms)", "DCuSOLVE (ms)", "speedup S", "speedup D"}}
	for _, row := range r.Rows {
		t.add(row.Panel.Name, fmt.Sprintf("%d", row.Iterations),
			f1(row.RGSQRFCGLSMs), f1(row.SCuSolveMs), f1(row.DCuSolveMs),
			f1(row.SpeedupS)+"x", f1(row.SpeedupD)+"x")
	}
	return fmt.Sprintf("Figure 8: LLS solver times at %.0fx%.0f (model; CGLS iteration counts measured numerically at %dx%d)\n%s",
		r.PaperM, r.PaperN, r.Scale.LLSM, r.Scale.LLSN, t.String())
}

// fig9Conds is the condition sweep of Figure 9.
var fig9Conds = []float64{1e3, 1e4, 1e5, 1e6}

// Fig9Row is one condition-number point of Figure 9.
type Fig9Row struct {
	Cond               float64
	SCuSolve, DCuSolve float64 // ‖Aᵀ(Ax−b)‖ of the direct baselines
	RGSDirect          float64 // RGSQRF direct solve
	RGSCGLS            float64 // RGSQRF + CGLS refinement
	Iterations         int
}

// Fig9Result is the accuracy figure.
type Fig9Result struct {
	Scale Scale
	Rows  []Fig9Row
}

// Fig9 runs the four solvers on cluster2 matrices across κ.
func Fig9(sc Scale) *Fig9Result {
	out := &Fig9Result{Scale: sc}
	for _, cond := range fig9Conds {
		rng := rand.New(rand.NewSource(sc.Seed))
		a := matgen.WithCond(rng, sc.LLSM, sc.LLSN, cond, matgen.Cluster2)
		prob := matgen.NewLLSProblem(rng, a, 0.1)
		row := Fig9Row{Cond: cond}

		// SCuSOLVE.
		a32 := dense.ToF32(a)
		b32 := make([]float32, len(prob.B))
		for i, v := range prob.B {
			b32[i] = float32(v)
		}
		xs := lls.DirectQR(a32, b32)
		xsw := make([]float64, len(xs))
		for i, v := range xs {
			xsw[i] = float64(v)
		}
		row.SCuSolve = accuracy.LLSOptimality(a, xsw, prob.B)

		// DCuSOLVE.
		row.DCuSolve = accuracy.LLSOptimality(a, lls.DirectQR(a, prob.B), prob.B)

		// RGSQRF direct and refined, sharing one factorization.
		f, err := rgs.Factor(a32, rgs.Options{Cutoff: sc.Cutoff})
		if err != nil {
			panic(err)
		}
		dsol, err := lls.SolveWithFactor(f, a, prob.B, lls.SolveOptions{Method: lls.MethodDirect})
		if err != nil {
			panic(err)
		}
		row.RGSDirect = accuracy.LLSOptimality(a, dsol.X, prob.B)
		csol, err := lls.SolveWithFactor(f, a, prob.B, lls.SolveOptions{Tol: 1e-13})
		if err != nil {
			panic(err)
		}
		row.RGSCGLS = accuracy.LLSOptimality(a, csol.X, prob.B)
		row.Iterations = csol.Iterations

		out.Rows = append(out.Rows, row)
	}
	return out
}

// Render formats Figure 9.
func (r *Fig9Result) Render() string {
	t := &table{header: []string{"cond(A)", "SCuSOLVE", "DCuSOLVE", "RGSQRF direct", "RGSQRF+CGLS", "iters"}}
	for _, row := range r.Rows {
		t.add(e(row.Cond), e(row.SCuSolve), e(row.DCuSolve), e(row.RGSDirect), e(row.RGSCGLS), fmt.Sprintf("%d", row.Iterations))
	}
	return fmt.Sprintf("Figure 9: LLS accuracy ‖Aᵀ(Ax−b)‖, %dx%d, SVD cluster2 distribution\n%s", r.Scale.LLSM, r.Scale.LLSN, t.String())
}
