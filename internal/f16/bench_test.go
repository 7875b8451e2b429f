package f16

import (
	"math/rand"
	"testing"

	"tcqr/internal/roundtest"
)

func benchData(n int) []float32 {
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	return x
}

func BenchmarkFromFloat32(b *testing.B) {
	x := benchData(4096)
	var sink Float16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range x {
			sink = FromFloat32(v)
		}
	}
	_ = sink
	b.SetBytes(4096 * 4)
}

func BenchmarkToFloat32Table(b *testing.B) {
	h := make([]Float16, 4096)
	for i := range h {
		h[i] = Float16(i * 13)
	}
	var sink float32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range h {
			sink = ToFloat32Fast(v)
		}
	}
	_ = sink
	b.SetBytes(4096 * 2)
}

func BenchmarkRoundSlice(b *testing.B) {
	x := benchData(1 << 16)
	dst := make([]float32, len(x))
	b.SetBytes(int64(len(x) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RoundSlice(dst, x)
	}
}

// BenchmarkRoundInPlace: {round, round+count, residual} × {vector, scalar} at
// the two packed-slab sizes the GEMM hooks (BenchmarkRoundSlice above, like
// the benchmark probe's f16.round_gelem_s, streams from memory instead).
func BenchmarkRoundInPlace(b *testing.B) { roundtest.Bench(b, sliceKernels, useVector) }
