package tcsim

import (
	"math/rand"
	"testing"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
)

func benchPair(m, n, k int) (*dense.M32, *dense.M32, *dense.M32) {
	rng := rand.New(rand.NewSource(1))
	a := dense.New[float32](m, k)
	b := dense.New[float32](k, n)
	for i := range a.Data {
		a.Data[i] = float32(rng.NormFloat64())
	}
	for i := range b.Data {
		b.Data[i] = float32(rng.NormFloat64())
	}
	return a, b, dense.New[float32](m, n)
}

// BenchmarkEngines compares the software cost of the engines. The simulated
// half-precision engines pay for operand rounding at pack time, and blocking
// re-rounds: op(B) once per row of macro-tiles, op(A) once per column — one
// pass over each operand at this 512³ shape, five matrix-sizes' worth per
// 2048×512 least squares solve. With the vector kernels of internal/f16 and
// internal/bf16 that is a few percent of the product, so TC and BF16 should
// read close to SGEMM and TC-EC near a third of it (three passes); on a host
// without them (scalar rounding) TC reads at under half of SGEMM. On the
// real device the same rounding is what makes the engine *faster*.
func BenchmarkEngines(b *testing.B) {
	a, bb, c := benchPair(512, 512, 512)
	for _, e := range []Engine{&FP32{}, &TensorCore{}, &BFloat16{}, &TCEC{}} {
		b.Run(e.Name(), func(b *testing.B) {
			b.SetBytes(2 * 512 * 512 * 512)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Gemm(blas.NoTrans, blas.NoTrans, 1, a, bb, 0, c)
			}
		})
	}
}

// BenchmarkEngineShapes runs the engine GEMMs of a 2048×512 least-squares
// factorization at their own shapes: the recursion's R12 = W1ᵀ·W2 and trailing
// update W2 ← W2 − W1·R12 on the TensorCore at the top two levels, and the
// same pair on float32 inside the CAQR panel's own recursion. Run it at
// -cpu 1,2: the 128- and 64-row R12s have one 128-row macro-tile, which the
// packed GEMM splits between workers (blas.splitMC cites these rows).
func BenchmarkEngineShapes(b *testing.B) {
	for _, s := range []struct {
		name    string
		e       Engine
		m, n, k int
		tA      blas.Transpose
	}{
		{"tc-r12-256x256x2048", &TensorCore{}, 256, 256, 2048, blas.Trans},
		{"tc-update-2048x256x256", &TensorCore{}, 2048, 256, 256, blas.NoTrans},
		{"tc-r12-128x128x2048", &TensorCore{}, 128, 128, 2048, blas.Trans},
		{"tc-update-2048x128x128", &TensorCore{}, 2048, 128, 128, blas.NoTrans},
		{"fp32-r12-64x64x2048", &FP32{}, 64, 64, 2048, blas.Trans},
		{"fp32-update-2048x64x64", &FP32{}, 2048, 64, 64, blas.NoTrans},
	} {
		b.Run(s.name, func(b *testing.B) {
			a, bb, c := benchPair(s.m, s.n, s.k)
			alpha, beta := float32(1), float32(0)
			if s.tA == blas.Trans {
				a = dense.New[float32](s.k, s.m)
				copy(a.Data, bb.Data)
			} else {
				alpha, beta = -1, 1
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.e.Gemm(s.tA, blas.NoTrans, alpha, a, bb, beta, c)
			}
			b.ReportMetric(2*float64(s.m)*float64(s.n)*float64(s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func BenchmarkTrackSpecialsOverhead(b *testing.B) {
	a, bb, c := benchPair(512, 512, 128)
	b.Run("off", func(b *testing.B) {
		e := &TensorCore{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Gemm(blas.NoTrans, blas.NoTrans, 1, a, bb, 0, c)
		}
	})
	b.Run("on", func(b *testing.B) {
		e := &TensorCore{TrackSpecials: true}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Gemm(blas.NoTrans, blas.NoTrans, 1, a, bb, 0, c)
		}
	})
}
