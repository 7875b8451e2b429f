package blas

import (
	"math/rand"
	"testing"

	"tcqr/internal/dense"
)

func benchM(r, c int) *dense.M32 {
	rng := rand.New(rand.NewSource(1))
	m := dense.New[float32](r, c)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func benchGemm(b *testing.B, tA, tB Transpose, m, n, k int) {
	benchGemmWith(b, tA, tB, m, n, k, func(a, bb, c *dense.M32) { Gemm(tA, tB, 1, a, bb, 0, c) })
}

// benchGemmFamilies runs benchGemm once per float32 kernel family the host
// runs, each forced through gemmWith, so the families read side by side.
func benchGemmFamilies(b *testing.B, tA, tB Transpose, m, n, k int) {
	for _, kern := range hostF32Kernels() {
		b.Run(kernelNames[kern], func(b *testing.B) {
			benchGemmWith(b, tA, tB, m, n, k, func(a, bb, c *dense.M32) { gemmWith(kern, tA, tB, 1, a, bb, 0, c, nil, nil) })
		})
	}
}

func benchGemmWith(b *testing.B, tA, tB Transpose, m, n, k int, gemm func(a, bb, c *dense.M32)) {
	b.Helper()
	var a, bb *dense.M32
	if tA == NoTrans {
		a = benchM(m, k)
	} else {
		a = benchM(k, m)
	}
	if tB == NoTrans {
		bb = benchM(k, n)
	} else {
		bb = benchM(n, k)
	}
	c := dense.New[float32](m, n)
	b.SetBytes(int64(2 * m * n * k)) // flop count proxy for MB/s ≈ GFLOPS/2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemm(a, bb, c)
	}
}

func BenchmarkGemmNN256(b *testing.B) { benchGemm(b, NoTrans, NoTrans, 256, 256, 256) }
func BenchmarkGemmTN256(b *testing.B) { benchGemm(b, Trans, NoTrans, 256, 256, 256) }
func BenchmarkGemmNT256(b *testing.B) { benchGemm(b, NoTrans, Trans, 256, 256, 256) }

// BenchmarkGemmProjectionShape is the RGSQRF R12 shape at quick scale, once
// per float32 kernel family.
func BenchmarkGemmProjectionShape(b *testing.B) { benchGemmFamilies(b, Trans, NoTrans, 128, 128, 2048) }

// BenchmarkGemmUpdateShape is the trailing-update shape at quick scale, once
// per float32 kernel family.
func BenchmarkGemmUpdateShape(b *testing.B) { benchGemmFamilies(b, NoTrans, NoTrans, 2048, 128, 128) }

func BenchmarkTrsmLeftUpper(b *testing.B) {
	n, rhs := 256, 64
	a := benchM(n, n)
	for j := 0; j < n; j++ {
		a.Set(j, j, 4)
	}
	x := benchM(n, rhs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Trsm(Left, Upper, NoTrans, NonUnit, 1, a, x)
	}
}

func BenchmarkGemv(b *testing.B) {
	a := benchM(2048, 512)
	x := make([]float32, 512)
	y := make([]float32, 2048)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(2048 * 512 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemv(NoTrans, 1, a, x, 0, y)
	}
}
