package blas_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"tcqr"
	"tcqr/internal/accuracy"
	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/gram"
	"tcqr/internal/lls"
	"tcqr/internal/matgen"
	"tcqr/internal/rgs"
	"tcqr/internal/tcsim"
)

// bitsHash is FNV-1a over the Float64bits of each slice in turn.
func bitsHash(xs ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		for _, v := range x {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestPoisonedScratchKeepsRefinementBits: the refinement and its accuracy
// check write every vector they carve from a scratch slab before they read
// it, so a slab whose contents are NaN gives the bits a fresh zeroed one
// gives. Each solve runs first on the free list as it is, then with every slab
// poisoned: CGLS on the five endings internal/lls pins (converged, settled,
// diverged, stagnated, best iterate x₀) with the LLSOptimality of each
// answer, LSQR, SolveLeastSquaresWithFactor on each column of a block under
// both methods, and a HazardFallback solve of a zero-column input, whose
// refinement never improves on x₀ and returns the copy it set aside. The
// settled ending runs twice, at κ 1e3 and on the fp16 factor of the κ 1e6
// geometric input whose bf16 factor stagnates, and the bf16 factor of a κ 1e6
// Cluster2 input diverges, so the settle rule's, the guard's and the window's
// restores of the best iterate are read from poisoned slabs.
func TestPoisonedScratchKeepsRefinementBits(t *testing.T) {
	fac := func(a *dense.M64, opts rgs.Options) *rgs.Result {
		f, err := rgs.Factor(dense.ToF32(a), opts)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	problem := func(seed int64, cond float64, dist matgen.Dist, resNorm float64) (*dense.M64, []float64) {
		rng := rand.New(rand.NewSource(seed))
		p := matgen.NewLLSProblem(rng, matgen.WithCond(rng, 300, 60, cond, dist), resNorm)
		return p.A, p.B
	}
	normalB := func(seed int64, cond float64) (*dense.M64, []float64) {
		rng := rand.New(rand.NewSource(seed))
		return matgen.WithCond(rng, 300, 60, cond, matgen.Geometric), matgen.Normal(rng, 300, 1).Col(0)
	}
	bf16 := rgs.Options{Engine: tcsim.KindBF16.New(), Cutoff: 32}
	convA, convB := problem(71, 1e3, matgen.Geometric, 0.1)
	settleA, settleB := normalB(70, 1e3)
	divA, divB := problem(70, 1e6, matgen.Cluster2, 0)
	stagA, stagB := normalB(72, 1e6)
	rng := rand.New(rand.NewSource(65))
	zeroA := matgen.WithZeroColumns(rng, 256, 64, 5)
	zeroB := matgen.Normal(rng, 256, 1).Col(0)
	block := matgen.Normal(rand.New(rand.NewSource(73)), 300, 3)
	settleF := fac(settleA, rgs.Options{})
	settleT, err := tcqr.Factorize(settleA, tcqr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cgls := []struct {
		name  string
		a     *dense.M64
		b     []float64
		f     *rgs.Result
		ended lls.Stop
	}{
		{"converges", convA, convB, fac(convA, rgs.Options{Cutoff: 32}), lls.StopConverged},
		{"settles", settleA, settleB, settleF, lls.StopSettled},
		{"settles at κ 1e6", stagA, stagB, fac(stagA, rgs.Options{Cutoff: 32}), lls.StopSettled},
		{"diverges", divA, divB, fac(divA, bf16), lls.StopDiverged},
		{"stagnates", stagA, stagB, fac(stagA, bf16), lls.StopStagnated},
		{"best is x0", zeroA, zeroB, fac(zeroA, rgs.Options{Cutoff: 32, Panel: &gram.HouseholderPanel{}}), lls.StopStagnated},
	}

	run := func() map[string]uint64 {
		got := map[string]uint64{}
		for _, tc := range cgls {
			res := lls.CGLS(tc.a, tc.b, tc.f.R, 0, 0)
			if res.Stop != tc.ended {
				t.Errorf("CGLS %s: ran %d iterations (%v), not the ending it covers", tc.name, res.Iterations, res.Stop)
			}
			got["CGLS "+tc.name] = bitsHash(res.X, res.GradNorms)
			got["LLSOptimality "+tc.name] = math.Float64bits(accuracy.LLSOptimality(tc.a, res.X, tc.b))
			res = lls.LSQR(tc.a, tc.b, tc.f.R, 0, 0)
			got["LSQR "+tc.name] = bitsHash(res.X, res.GradNorms)
		}
		for _, method := range []tcqr.RefineMethod{tcqr.RefineCGLS, tcqr.RefineLSQR} {
			for j := range block.Cols {
				sol, err := tcqr.SolveLeastSquaresWithFactor(settleT, settleA, block.Col(j), tcqr.SolveOptions{Method: method})
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("SolveLeastSquaresWithFactor %v column %d", method, j)] = bitsHash(sol.X, []float64{sol.Optimality})
			}
		}
		res, err := tcqr.SolveLeastSquares(zeroA, zeroB, tcqr.SolveOptions{QR: tcqr.Config{Cutoff: 32, OnHazard: tcqr.HazardFallback}})
		if err != nil {
			t.Fatal(err)
		}
		got["SolveLeastSquares fallback"] = bitsHash(res.X, []float64{res.Optimality})
		return got
	}
	want := run()
	blas.PoisonScratch(t)
	for name, h := range run() {
		if h != want[name] {
			t.Errorf("%s: bits %#016x from poisoned scratch, %#016x from the free list as it was", name, h, want[name])
		}
	}
}
