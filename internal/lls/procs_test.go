package lls

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"tcqr/internal/accuracy"
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

// TestRefinementBitsIndependentOfProcs runs CGLS and LSQR at GOMAXPROCS 1, 2
// and 4 on a 4096×128 problem, the size from which blas shares a
// float64 Gemv between the caller and parked helpers: X and GradNorms must
// have the same bits at each, because the split changes who computes an
// element of a product and never how. Three more columns are solved at
// once through SolveWithFactor under each method, as a server solves
// concurrent requests over one cached factor: how many refine together
// changes with the count, and their X, GradNorms and LLSOptimality must not.
func TestRefinementBitsIndependentOfProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := matgen.WithCond(rng, 4096, 128, 1e4, matgen.Geometric)
	b := matgen.Normal(rng, 4096, 2)
	block := matgen.Normal(rng, 4096, 3)
	f, err := rgs.Factor(dense.ToF32(a), rgs.Options{Cutoff: 64})
	if err != nil {
		t.Fatal(err)
	}
	run := func() map[string]uint64 {
		cg := CGLS(a, b.Col(0), f.R, 0, 0)
		ls := LSQR(a, b.Col(1), f.R, 0, 0)
		got := map[string]uint64{
			"CGLS": bitsHash(cg.X, cg.GradNorms),
			"LSQR": bitsHash(ls.X, ls.GradNorms),
		}
		for _, method := range []Method{MethodCGLS, MethodLSQR} {
			cols := make([][]float64, block.Cols)
			var wg sync.WaitGroup
			for j := range cols {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := SolveWithFactor(f, a, block.Col(j), SolveOptions{Method: method})
					if err != nil {
						t.Error(err)
						return
					}
					opt := accuracy.LLSOptimality(a, res.X, block.Col(j))
					cols[j] = append(append(res.X, res.GradNorms...), opt)
				}()
			}
			wg.Wait()
			got["concurrent "+method.String()] = bitsHash(cols...)
		}
		return got
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

// TestLSQRAllocationsDoNotGrow: LSQR and CGLS allocate per solve, not per
// iteration (LSQR used to copy the vector it hands Trsv on every product), and
// per solve only what they return — X, the result and GradNorms — because
// their working vectors come from a pooled slab; so a warm run of 50
// iterations allocates what a run of 5 does, at most 3 objects. The
// LLSOptimality of the answer allocates nothing. LSQR's X and GradNorms keep
// the bits recorded before the copy became one scratch vector.
func TestLSQRAllocationsDoNotGrow(t *testing.T) {
	p := problem(62, 300, 60, 1e6, matgen.Geometric, 0.1)
	f, err := rgs.Factor(dense.ToF32(p.A), rgs.Options{Cutoff: 32})
	if err != nil {
		t.Fatal(err)
	}
	methods := []struct {
		name  string
		solve func(a *dense.M64, b []float64, r *dense.M32, tol float64, maxIter int) *IterResult
	}{{"LSQR", LSQR}, {"CGLS", CGLS}}
	for _, m := range methods {
		allocs := map[int]float64{}
		for _, iters := range []int{5, 50} {
			// A tolerance no iteration reaches: the run takes exactly iters.
			if res := m.solve(p.A, p.B, f.R, 1e-300, iters); res.Iterations != iters {
				t.Fatalf("%s ran %d iterations, want %d", m.name, res.Iterations, iters)
			}
			allocs[iters] = testing.AllocsPerRun(5, func() { m.solve(p.A, p.B, f.R, 1e-300, iters) })
		}
		if allocs[5] != allocs[50] {
			t.Errorf("%s allocates %v times in 5 iterations and %v in 50", m.name, allocs[5], allocs[50])
		}
		if allocs[50] > 3 {
			t.Errorf("%s allocates %v times per solve; X, the result and GradNorms are 3", m.name, allocs[50])
		}
	}
	x := make([]float64, p.A.Cols)
	if n := testing.AllocsPerRun(5, func() { accuracy.LLSOptimality(p.A, x, p.B) }); n != 0 {
		t.Errorf("LLSOptimality allocates %v times", n)
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("bits recorded on amd64; other ports may fuse multiply-adds in the Go loops")
	}
	res := LSQR(p.A, p.B, f.R, 1e-300, 50)
	if h, want := bitsHash(res.X, res.GradNorms), uint64(0x2e3c60b40e6fb079); h != want {
		t.Errorf("LSQR bits %016x, recorded %016x", h, want)
	}
}
