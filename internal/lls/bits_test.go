package lls

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tcqr/internal/accuracy"
	"tcqr/internal/dense"
	"tcqr/internal/gram"
	"tcqr/internal/matgen"
	"tcqr/internal/rgs"
)

// cglsEnding names how a CGLS run ends.
type cglsEnding int

const (
	endConverged cglsEnding = iota // ‖s_k‖ reached tol·‖s_0‖
	endDiverged                    // the divergence guard restored the best iterate
	endStagnated                   // a window without progress; the best is a later iterate
	endBestIsX0                    // a window without progress; the best is x₀ = 0
)

// cglsTrajectory is one CGLS run: min ‖A·x − b‖ preconditioned by r, at the
// default iteration cap.
type cglsTrajectory struct {
	name   string
	a, r   *dense.M64
	b      []float64
	tol    float64
	ending cglsEnding
}

// cglsTrajectories returns one CGLS run that ends each way CGLS can end.
// The diverging one is the case every benchmark solve is: a κ 1e3 geometric
// A with a standard normal b, the default factorization and the default
// tolerance, which the float64 iteration cannot reach. The one whose best
// iterate is x₀ is the zero-column input a HazardFallback solve refactors on
// the Householder rung: its R has zeros on the diagonal, every gradient norm
// is NaN, none improves on ‖s_0‖, and CGLS returns the x₀ it copied aside.
func cglsTrajectories(t *testing.T) []cglsTrajectory {
	t.Helper()
	fac := func(a *dense.M64, opts rgs.Options) *dense.M64 {
		f, err := rgs.Factor(dense.ToF32(a), opts)
		if err != nil {
			t.Fatal(err)
		}
		return f.R64()
	}
	conv := problem(71, 300, 60, 1e3, matgen.Geometric, 0.1)
	stag := problem(72, 300, 60, 1e6, matgen.Geometric, 0.1)
	rng := rand.New(rand.NewSource(70))
	div := matgen.WithCond(rng, 300, 60, 1e3, matgen.Geometric)
	divB := matgen.Normal(rng, 300, 1).Col(0)
	rng = rand.New(rand.NewSource(65))
	zero := matgen.WithZeroColumns(rng, 256, 64, 5)
	zeroB := matgen.Normal(rng, 256, 1).Col(0)
	return []cglsTrajectory{
		{"converges", conv.A, fac(conv.A, rgs.Options{Cutoff: 32}), conv.B, 0, endConverged},
		{"diverges", div, fac(div, rgs.Options{}), divB, 0, endDiverged},
		{"stagnates", stag.A, fac(stag.A, rgs.Options{Cutoff: 32}), stag.B, 0, endStagnated},
		{"best is x0", zero, fac(zero, rgs.Options{Cutoff: 32, Panel: &gram.HouseholderPanel{}}), zeroB, 0, endBestIsX0},
	}
}

// TestCGLSBitsGolden pins CGLS's X and GradNorms, and the LLSOptimality of
// its X, on one trajectory per way a run ends, by Float64bits. A run that
// ends on a guard returns an iterate it copied aside, so each ending reads
// the working vectors in its own order.
func TestCGLSBitsGolden(t *testing.T) {
	want := map[string]struct{ bits, optimality uint64 }{
		"converges":  {0x689cce358de45cf0, 0x3cdff34da16ebef3},
		"diverges":   {0xd2e9e2ccb34fc08f, 0x3d201b254fd1dc80},
		"stagnates":  {0x9b4b23c7fd5fc850, 0x3d47ee3a08cdf485},
		"best is x0": {0x7c7883d92b4f9290, 0x405ff775a7ff2571},
	}
	for _, tc := range cglsTrajectories(t) {
		res := CGLS(tc.a, tc.b, tc.r, tc.tol, 0)
		best := 0 // the iterate CGLS keeps: the first strict minimum, NaN never one
		for k, v := range res.GradNorms {
			if v < res.GradNorms[best] {
				best = k
			}
		}
		var ended bool
		switch tc.ending {
		case endConverged:
			ended = res.Converged
		case endDiverged:
			ended = res.Diverged
		case endStagnated:
			ended = res.Stagnated && best > 0
		case endBestIsX0:
			ended = res.Stagnated && best == 0 && !slices.ContainsFunc(res.X, func(v float64) bool { return v != 0 })
		}
		if !ended {
			t.Errorf("%s: ran %d iterations (converged %v, diverged %v, stagnated %v, best at %d), not the ending it pins",
				tc.name, res.Iterations, res.Converged, res.Diverged, res.Stagnated, best)
		}
		if runtime.GOARCH != "amd64" {
			continue // bits recorded on amd64; other ports may fuse multiply-adds in the Go loops
		}
		bits := bitsHash(res.X, res.GradNorms)
		opt := math.Float64bits(accuracy.LLSOptimality(tc.a, res.X, tc.b))
		if w := want[tc.name]; bits != w.bits || opt != w.optimality {
			t.Errorf("%s: bits %#016x, optimality %#016x; recorded %#016x, %#016x", tc.name, bits, opt, w.bits, w.optimality)
		}
	}
}
