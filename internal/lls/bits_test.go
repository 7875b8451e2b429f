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
	"tcqr/internal/tcsim"
)

// cglsEnding names how a CGLS run ends.
type cglsEnding int

const (
	endConverged cglsEnding = iota // ‖s_k‖ reached tol·‖s_0‖
	endDiverged                    // the divergence guard restored the best iterate
	endSettled                     // a settle window near tol; the best is a later iterate
	endStagnated                   // a window without progress; the best is a later iterate
	endBestIsX0                    // a window without progress; the best is x₀ = 0
)

// cglsTrajectory is one CGLS run: min ‖A·x − b‖ preconditioned by r, at the
// default iteration cap.
type cglsTrajectory struct {
	name   string
	a      *dense.M64
	r      *dense.M32
	b      []float64
	tol    float64
	ending cglsEnding
}

// cglsTrajectories returns one CGLS run that ends each way CGLS can end.
// The settling one is the case every benchmark solve is: a κ 1e3 geometric
// A with a standard normal b, the default factorization and the default
// tolerance, which the float64 iteration cannot reach; its best gradient
// lands within SettleBand of it, and SettleWindow iterations later CGLS
// returns the iterate the divergence guard restored when it ran on. The
// diverging one is a bf16 factor of a κ 1e6 Cluster2 A with a consistent b,
// whose gradient blows up before any window closes. The stagnating one is a
// bf16 factor of a κ 1e6 geometric A: its best stalls near 3e-3 of ‖s_0‖,
// far above the band, so only StagnationWindow ends it. The one whose best
// iterate is x₀ is the zero-column input a HazardFallback solve refactors on
// the Householder rung: its R has zeros on the diagonal, every gradient norm
// is NaN, none improves on ‖s_0‖, and CGLS returns the x₀ it copied aside.
func cglsTrajectories(t *testing.T) []cglsTrajectory {
	t.Helper()
	fac := func(a *dense.M64, opts rgs.Options) *dense.M32 {
		f, err := rgs.Factor(dense.ToF32(a), opts)
		if err != nil {
			t.Fatal(err)
		}
		return f.R
	}
	bf16 := rgs.Options{Engine: tcsim.KindBF16.New(), Cutoff: 32}
	conv := problem(71, 300, 60, 1e3, matgen.Geometric, 0.1)
	rng := rand.New(rand.NewSource(70))
	settle := matgen.WithCond(rng, 300, 60, 1e3, matgen.Geometric)
	settleB := matgen.Normal(rng, 300, 1).Col(0)
	div := problem(70, 300, 60, 1e6, matgen.Cluster2, 0)
	rng = rand.New(rand.NewSource(72))
	stag := matgen.WithCond(rng, 300, 60, 1e6, matgen.Geometric)
	stagB := matgen.Normal(rng, 300, 1).Col(0)
	rng = rand.New(rand.NewSource(65))
	zero := matgen.WithZeroColumns(rng, 256, 64, 5)
	zeroB := matgen.Normal(rng, 256, 1).Col(0)
	return []cglsTrajectory{
		{"converges", conv.A, fac(conv.A, rgs.Options{Cutoff: 32}), conv.B, 0, endConverged},
		{"settles", settle, fac(settle, rgs.Options{}), settleB, 0, endSettled},
		{"diverges", div.A, fac(div.A, bf16), div.B, 0, endDiverged},
		{"stagnates", stag, fac(stag, bf16), stagB, 0, endStagnated},
		{"best is x0", zero, fac(zero, rgs.Options{Cutoff: 32, Panel: &gram.HouseholderPanel{}}), zeroB, 0, endBestIsX0},
	}
}

// TestCGLSBitsGolden pins CGLS's X and GradNorms, and the LLSOptimality of
// its X, on one trajectory per way a run ends, by Float64bits. A run that
// ends on a guard returns an iterate it copied aside, so each ending reads
// the working vectors in its own order. X and GradNorms are hashed apart: a
// stop rule that ends a run sooner shortens GradNorms, and the X hash tells
// whether it returned the same answer.
func TestCGLSBitsGolden(t *testing.T) {
	want := map[string]struct{ x, grads, optimality uint64 }{
		"converges":  {0x22dcd827bb45db1c, 0x332a3a9e4d9bea55, 0x3cdff34da16ebef3},
		"settles":    {0x0c4784c01ef01d1f, 0x2d3a06850e1dc6da, 0x3d201b254fd1dc80},
		"diverges":   {0xccf49b7101e60e13, 0x116cbc4694b1827b, 0x3ea6ac1f858dabc6},
		"stagnates":  {0x40eafb6f26153acb, 0xbc34dca4fadeae39, 0x3f6fe7d9e4902fe3},
		"best is x0": {0x7da144b97d054b25, 0x2174cd6c73216a90, 0x405ff775a7ff2571},
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
			ended = res.Stop == StopConverged
		case endDiverged:
			ended = res.Stop == StopDiverged
		case endSettled:
			ended = res.Stop == StopSettled && best > 0
		case endStagnated:
			ended = res.Stop == StopStagnated && best > 0
		case endBestIsX0:
			ended = res.Stop == StopStagnated && best == 0 && !slices.ContainsFunc(res.X, func(v float64) bool { return v != 0 })
		}
		if !ended {
			t.Errorf("%s: ran %d iterations (%v, best at %d), not the ending it pins",
				tc.name, res.Iterations, res.Stop, best)
		}
		if runtime.GOARCH != "amd64" {
			continue // bits recorded on amd64; other ports may fuse multiply-adds in the Go loops
		}
		x, grads := bitsHash(res.X), bitsHash(res.GradNorms)
		opt := math.Float64bits(accuracy.LLSOptimality(tc.a, res.X, tc.b))
		if w := want[tc.name]; x != w.x || grads != w.grads || opt != w.optimality {
			t.Errorf("%s: X %#016x, GradNorms %#016x, optimality %#016x; recorded %#016x, %#016x, %#016x",
				tc.name, x, grads, opt, w.x, w.grads, w.optimality)
		}
	}
}

// TestLooseTolNeverSettles: the settle band sits SettleBand above the float64
// floor whatever the caller's tol, so from tol 1e-12 up a run that reaches
// the band has converged first and no run settles. Each trajectory keeps the
// default tolerance's run up to where its own tol stops it: a looser tol
// ends it sooner by convergence or not at all, as it did before the settle
// rule. The stagnating one, whose best stays near 3e-3 of ‖s_0‖, must still
// run its full stagnation window at tol 1e-3.
func TestLooseTolNeverSettles(t *testing.T) {
	for _, tc := range cglsTrajectories(t) {
		ref := CGLS(tc.a, tc.b, tc.r, tc.tol, 0)
		for _, tol := range []float64{1e-12, 1e-6, 1e-3, 0.5} {
			res := CGLS(tc.a, tc.b, tc.r, tol, 0)
			n := len(res.GradNorms)
			if res.Stop == StopSettled || n > len(ref.GradNorms) || bitsHash(res.GradNorms) != bitsHash(ref.GradNorms[:n]) {
				t.Errorf("%s at tol %g: ran %d iterations (%v), not a prefix of the %d the default tolerance runs",
					tc.name, tol, res.Iterations, res.Stop, ref.Iterations)
			}
			if tc.ending == endStagnated && tol <= 1e-3 && (res.Stop != StopStagnated || bitsHash(res.X) != bitsHash(ref.X)) {
				t.Errorf("%s at tol %g: %v after %d iterations, want the default tolerance's stagnated run", tc.name, tol, res.Stop, res.Iterations)
			}
		}
	}
}
