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
