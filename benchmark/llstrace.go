package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"tcqr"
	"tcqr/internal/accuracy"
	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/gram"
	"tcqr/internal/hazard"
	"tcqr/internal/lls"
	"tcqr/internal/rgs"
	"tcqr/internal/tcsim"
)

// The traced lls-dense pass re-runs tcqr.SolveLeastSquares by hand, step
// for step with its default options, so that a span can be taken around
// each call into a layer from this side of the boundary: the narrowing, the
// factorization with a timed engine and a timed panel, and the refinement.
// The input checks and the final optimality evaluation that the library
// entry point also performs are run too, and land in the operation's self
// time.

// llsTraceState carries what the wrappers accumulate across a traced phase.
type llsTraceState struct {
	gemmFlops int64
	iters     []float64
}

// timedEngine records a span per engine GEMM call and counts its flops.
type timedEngine struct {
	inner tcsim.Engine
	tr    *tracer
	op    int
	flops *int64
}

func (e *timedEngine) Name() string { return e.inner.Name() }

func (e *timedEngine) Gemm(tA, tB blas.Transpose, alpha float32, a, b *dense.M32, beta float32, c *dense.M32) {
	t0 := time.Now()
	e.inner.Gemm(tA, tB, alpha, a, b, beta, c)
	e.tr.add(e.op, "tcsim.gemm", "rgs.factor", t0, time.Since(t0))
	k := a.Cols
	if tA == blas.Trans {
		k = a.Rows
	}
	*e.flops += 2 * int64(c.Rows) * int64(c.Cols) * int64(k)
}

// timedPanel records a span per panel factorization.
type timedPanel struct {
	inner gram.Panel
	tr    *tracer
	op    int
}

func (p *timedPanel) Name() string { return p.inner.Name() }

func (p *timedPanel) Factor(a *dense.M32) (q, r *dense.M32, err error) {
	t0 := time.Now()
	q, r, err = p.inner.Factor(a)
	p.tr.add(p.op, "gram.panel", "rgs.factor", t0, time.Since(t0))
	return q, r, err
}

// solve is the traced equivalent of tcqr.SolveLeastSquares(a, b, SolveOptions{}).
func (s *llsTraceState) solve(tr *tracer, op int, a *tcqr.Matrix, b []float64) ([]float64, error) {
	tOp := time.Now()
	if err := hazard.CheckMatrix("A", a); err != nil {
		return nil, err
	}
	t0 := time.Now()
	a32 := dense.ToF32(a)
	tr.add(op, "dense.narrow", "tcqr.solve", t0, time.Since(t0))

	if err := hazard.CheckMatrix("A", a32); err != nil {
		return nil, err
	}
	t0 = time.Now()
	f, err := rgs.Factor(a32, rgs.Options{
		Engine: &timedEngine{inner: &tcsim.TensorCore{TrackSpecials: true}, tr: tr, op: op, flops: &s.gemmFlops},
		Panel:  &timedPanel{inner: &gram.CAQRPanel{}, tr: tr, op: op},
	})
	tr.add(op, "rgs.factor", "tcqr.solve", t0, time.Since(t0))
	if err != nil {
		return nil, err
	}
	if !hazard.MatrixFinite(f.Q) || !hazard.MatrixFinite(f.R) {
		return nil, fmt.Errorf("non-finite factors")
	}

	t0 = time.Now()
	sol, err := lls.SolveWithFactor(f, a, b, lls.SolveOptions{Hazards: &hazard.Report{}})
	tr.add(op, "lls.refine", "tcqr.solve", t0, time.Since(t0))
	if err != nil {
		return nil, err
	}
	_ = accuracy.LLSOptimality(a, sol.X, b)
	tr.add(op, "tcqr.solve", "", tOp, time.Since(tOp))
	s.iters = append(s.iters, float64(sol.Iterations))
	return sol.X, nil
}

func (w *llsDense) layers(_ context.Context, tr *tracer, _ int, out layerSet) error {
	perOp := tr.perOp()
	narrow, factor := perOp.column("dense.narrow"), perOp.column("rgs.factor")
	gemm, panel := perOp.column("tcsim.gemm"), perOp.column("gram.panel")
	refine, whole := perOp.column("lls.refine"), perOp.column("tcqr.solve")
	rgsSelf, solveSelf := make([]float64, len(whole)), make([]float64, len(whole))
	for i := range whole {
		rgsSelf[i] = factor[i] - gemm[i] - panel[i]
		solveSelf[i] = whole[i] - narrow[i] - factor[i] - refine[i]
	}
	out.set("dense.narrow_ms", median(narrow))
	out.set("rgs.factor_ms", median(factor))
	out.set("rgs.self_ms", median(rgsSelf))
	out.set("tcsim.gemm_ms", median(gemm))
	out.set("gram.panel_ms", median(panel))
	out.set("lls.refine_ms", median(refine))
	out.set("tcqr.solve_self_ms", median(solveSelf))
	out.set("lls.iters", median(w.tr.iters))
	gemmCalls, gemmMS := tr.total("tcsim.gemm")
	panelCalls, _ := tr.total("gram.panel")
	n := float64(len(whole))
	out.set("tcsim.gemm_calls", float64(gemmCalls)/n)
	out.set("gram.panel_calls", float64(panelCalls)/n)
	if gemmMS > 0 {
		out.set("tcsim.gemm_gflops", float64(w.tr.gemmFlops)/(gemmMS*1e6))
	}

	// One more factorization outside any span, for the quality and
	// allocation figures of the layer the time goes to.
	a32 := dense.ToF32(w.pool[0])
	opts := rgs.Options{Engine: &tcsim.TensorCore{TrackSpecials: true}, Panel: &gram.CAQRPanel{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := rgs.Factor(a32, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	out.set("rgs.allocs_per_factor", float64(after.Mallocs-before.Mallocs))
	out.set("rgs.backward_err", accuracy.BackwardError(a32, f.Q, f.R))
	out.set("rgs.ortho_err", accuracy.OrthoError(f.Q))
	return nil
}
