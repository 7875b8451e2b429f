package lls

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tcqr/internal/dense"
	"tcqr/internal/matgen"
	"tcqr/internal/rgs"
)

// bitsHash is FNV-1a over the Float64bits of each slice in turn,
// little-endian.
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

// TestRefinementBitsIndependentOfProcs runs every refinement at GOMAXPROCS
// 1, 2 and 4 on a 4096×128 problem, the size from which blas shares a
// float64 Gemv between the caller and parked helpers: X and GradNorms must
// have the same bits at each, because the split changes who computes an
// element of a product and never how.
func TestRefinementBitsIndependentOfProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := matgen.WithCond(rng, 4096, 128, 1e4, matgen.Geometric)
	b := matgen.Normal(rng, 4096, 3)
	f, err := rgs.Factor(dense.ToF32(a), rgs.Options{Cutoff: 64})
	if err != nil {
		t.Fatal(err)
	}
	r64 := f.R64()
	run := func() map[string]uint64 {
		cg := CGLS(a, b.Col(0), r64, 0, 0)
		ls := LSQR(a, b.Col(1), r64, 0, 0)
		ms, err := SolveMultiWithFactor(f, a, b, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ml, err := SolveMultiWithFactor(f, a, b, SolveOptions{Method: MethodLSQR})
		if err != nil {
			t.Fatal(err)
		}
		return map[string]uint64{
			"CGLS":                      bitsHash(cg.X, cg.GradNorms),
			"LSQR":                      bitsHash(ls.X, ls.GradNorms),
			"SolveMultiWithFactor":      bitsHash(ms.X.Data),
			"SolveMultiWithFactor LSQR": bitsHash(ml.X.Data),
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want map[string]uint64
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := run()
		if want == nil {
			want = got
			continue
		}
		for name, h := range got {
			if h != want[name] {
				t.Errorf("%s at GOMAXPROCS %d: bits %016x, at 1: %016x", name, procs, h, want[name])
			}
		}
	}
}

// TestLSQRAllocationsDoNotGrow: LSQR allocates per solve, not per iteration
// (it used to copy the vector it hands Trsv on every product), so a run of 50
// iterations allocates what a run of 5 does, and X and GradNorms keep the
// bits recorded before the copy became one scratch vector.
func TestLSQRAllocationsDoNotGrow(t *testing.T) {
	p := problem(62, 300, 60, 1e6, matgen.Geometric, 0.1)
	f, err := rgs.Factor(dense.ToF32(p.A), rgs.Options{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	r64 := f.R64()
	allocs := map[int]float64{}
	for _, iters := range []int{5, 50} {
		// A tolerance no iteration reaches: the run takes exactly iters.
		if res := LSQR(p.A, p.B, r64, 1e-300, iters); res.Iterations != iters {
			t.Fatalf("LSQR ran %d iterations, want %d", res.Iterations, iters)
		}
		allocs[iters] = testing.AllocsPerRun(5, func() { LSQR(p.A, p.B, r64, 1e-300, iters) })
	}
	if allocs[5] != allocs[50] {
		t.Errorf("LSQR allocates %v times in 5 iterations and %v in 50", allocs[5], allocs[50])
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("bits recorded on amd64; other ports may fuse multiply-adds in the Go loops")
	}
	res := LSQR(p.A, p.B, r64, 1e-300, 50)
	if h, want := bitsHash(res.X, res.GradNorms), uint64(0x2e3c60b40e6fb079); h != want {
		t.Errorf("LSQR bits %016x, recorded %016x", h, want)
	}
}
