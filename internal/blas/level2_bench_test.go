package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/dense"
)

// The benchmarks in this file run the level-2 kernels at the shapes the
// repository's workloads run them, each beside a sibling that calls the Go
// loop directly, so one
//
//	go test -run '^$' -bench 'Gemv64Shapes|MGSTile|Nrm2Fresh|GemmBatchBodies' -benchmem -cpu 1,2 ./internal/blas
//
// prints vector beside scalar on any host (on a host without AVX2 the two
// lines are the same code), and the split Gemv beside the caller alone. All
// of them must report 0 allocs/op.

// BenchmarkGemv64Shapes: the refinement's two products. 1024×256 is
// serve-hit's cached solve (2 MB, L2-resident), 2048×512 lls-dense (8 MB,
// L3), 4096×128 serve-cold-tall. "split" is Gemv, which from gemvSplitMin
// and two processors up shares the product with parked helpers (compare
// split-2 with vector-2), "vector" the same kernels on the caller alone, "go"
// the Go loops.
func BenchmarkGemv64Shapes(b *testing.B) {
	for _, s := range []struct{ m, n int }{{1024, 256}, {2048, 512}, {4096, 128}} {
		a := benchM64(s.m, s.n)
		for _, tA := range []Transpose{NoTrans, Trans} {
			xn, yn, name := s.n, s.m, "N"
			if tA == Trans {
				xn, yn, name = s.m, s.n, "T"
			}
			x, y := make([]float64, xn), make([]float64, yn)
			for i := range x {
				x[i] = 1
			}
			for _, impl := range []struct {
				name string
				gemv func(Transpose, float64, *dense.M64, []float64, float64, []float64)
			}{{"split", Gemv[float64]}, {"vector", serialGemv[float64]}, {"go", goGemv[float64]}} {
				b.Run(fmt.Sprintf("%s/%dx%d/%s", name, s.m, s.n, impl.name), func(b *testing.B) {
					b.SetBytes(int64(s.m) * int64(s.n) * 8)
					for i := 0; i < b.N; i++ {
						impl.gemv(tA, 1, a, x, 0, y)
					}
				})
			}
		}
	}
}

// BenchmarkMGSTileWalk256x32 walks one 256×32 float32 tile the way gram.MGS
// walks it — for each column, a transposed product with the trail to its
// right (widths 31…1) and the rank-1 update of that trail — on a view with
// the leading dimension of a 2048-row panel, as the tile tree passes it. The
// vector q is a fixed unit vector, so after the first pass the tile sits in
// q's orthogonal complement and stays bounded however long the benchmark
// runs.
func BenchmarkMGSTileWalk256x32(b *testing.B) {
	const m, n = 256, 32
	q := make([]float32, m)
	rng := rand.New(rand.NewSource(11))
	var ss float64
	for i := range q {
		q[i] = float32(rng.NormFloat64())
		ss += float64(q[i]) * float64(q[i])
	}
	for i := range q {
		q[i] /= float32(math.Sqrt(ss))
	}
	row := make([]float32, n)
	for _, f := range []struct {
		name string
		gemv func(Transpose, float32, *dense.M32, []float32, float32, []float32)
		ger  func(float32, []float32, []float32, *dense.M32)
	}{
		{"vector", Gemv[float32], Ger[float32]},
		{"go", goGemv[float32], refGer[float32]},
	} {
		b.Run(f.name, func(b *testing.B) {
			tile := benchM(2048, n).View(512, 0, m, n)
			trails := make([]*dense.M32, n-1)
			for k := range trails {
				trails[k] = tile.View(0, k+1, m, n-k-1)
			}
			b.SetBytes(m * (n - 1) * n / 2 * 4 * 2) // each trail element read by both calls
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, trail := range trails {
					r := row[:trail.Cols]
					f.gemv(Trans, 1, trail, q, 0, r)
					f.ger(-1, q, r, trail)
				}
			}
		})
	}
}

// BenchmarkMGSTile256x32 factors one 256×32 float32 tile, copied into place
// from a fixed matrix on every iteration: "ymm" and "zmm" are MGSTile, the
// fused tile kernel gram.MGS dispatches to, with tileKernel forced to each
// vector family the host runs; "go" is the Go loop of gram.MGS (goMGS), the
// level-1 and level-2 calls the tile walk above times without the norms and
// the scaling.
func BenchmarkMGSTile256x32(b *testing.B) {
	const m, n = 256, 32
	src := benchM(m, n)
	a, r := dense.New[float32](m, n), dense.New[float32](n, n)
	var work []float32
	run := func(b *testing.B, mgs func()) {
		b.SetBytes(2 * m * n * n * 4)
		for i := 0; i < b.N; i++ {
			mgs()
		}
	}
	for _, kern := range hostTileKernels()[1:] {
		b.Run(tileKernelNames[kern], func(b *testing.B) {
			withTileKernel(kern, func() {
				if w := MGSTileWork(m); len(work) < w {
					work = make([]float32, w)
				}
				run(b, func() { r.Zero(); MGSTile(src, a, r, work) })
			})
		})
	}
	b.Run("go", func(b *testing.B) { run(b, func() { a.CopyFrom(src); goMGS(a, r) }) })
}

// goMGS is gram.MGS's Go loop: per column Nrm2, Scal, then the trail's
// transposed product and rank-1 update.
func goMGS(a, r *dense.M32) {
	r.Zero()
	goMGSFrom(a, r, 0, 0)
}

// BenchmarkNrm2FreshColumns takes the norm of 4096 different 256-element
// float32 columns per iteration (a 1 Mi-element array, 4 MB): data the branch
// predictor has not seen, which is what a factorization's columns are. On
// one column repeated the predictor learns the signs and the branching loop
// looks as fast as the branch-free one.
func BenchmarkNrm2FreshColumns(b *testing.B) {
	x := benchM(1<<20, 1).Data
	for _, impl := range []struct {
		name string
		nrm2 func([]float32) float32
	}{{"branchfree", Nrm2[float32]}, {"branching", oldNrm2[float32]}} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(int64(len(x)) * 4)
			var s float32
			for i := 0; i < b.N; i++ {
				for j := 0; j+256 <= len(x); j += 256 {
					s += impl.nrm2(x[j : j+256])
				}
			}
			if s != s {
				b.Fatal("NaN norm")
			}
		})
	}
}

// BenchmarkGemmBatchBodies8x256x32 runs the eight tile products of a
// 2048-row tile tree level, Q_i(256×32)·Q2_i(32×32), one after the other
// through the per-problem body of GemmBatch without its task runner: "ymm"
// and "zmm" are the register-blocked kernel gemmNNF32 with tileKernel forced
// to each vector family the host runs, "go" the column sweep as it stood
// before colUpdate.
func BenchmarkGemmBatchBodies8x256x32(b *testing.B) {
	const batch, m, n = 8, 256, 32
	as, bs, cs := make([]*dense.M32, batch), make([]*dense.M32, batch), make([]*dense.M32, batch)
	for p := range as {
		as[p], bs[p], cs[p] = benchM(m, n), benchM(n, n), dense.New[float32](m, n)
	}
	run := func(b *testing.B, gemm func(a, bb, c *dense.M32)) {
		b.SetBytes(batch * (2*m*n + n*n) * 4)
		for i := 0; i < b.N; i++ {
			for p := range as {
				gemm(as[p], bs[p], cs[p])
			}
		}
	}
	for _, kern := range hostTileKernels()[1:] {
		b.Run(tileKernelNames[kern], func(b *testing.B) {
			withTileKernel(kern, func() {
				run(b, func(a, bb, c *dense.M32) { gemmNNF32(1, a, bb, 0, c, m, n, n) })
			})
		})
	}
	b.Run("go", func(b *testing.B) { run(b, func(a, bb, c *dense.M32) { refGemmCols(NoTrans, 1, a, bb, 0, c) }) })
}
