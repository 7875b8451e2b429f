package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/dense"
)

// trsvWideCase solves with the float32 triangle r under a float64 x in all
// eight uplo × trans × diag cases and requires the bits of Trsv on r's exact
// float64 widening. For the two Upper cases it also requires the bits of the
// Go loops on r itself, the fallback the vector path hands blocks back to
// and the loops every other port runs.
func trsvWideCase(t *testing.T, what string, r *dense.M32, x []float64) {
	t.Helper()
	wide := dense.ToF64(r)
	for _, uplo := range []Uplo{Upper, Lower} {
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, diag := range []Diag{NonUnit, Unit} {
				name := fmt.Sprintf("%s uplo %v trans %v diag %v", what, uplo, tA, diag)
				got := append([]float64(nil), x...)
				want := append([]float64(nil), x...)
				Trsv(uplo, tA, diag, r, got)
				Trsv(uplo, tA, diag, wide, want)
				sameBits(t, name+" against the widened triangle", got, want)
				if uplo != Upper {
					continue
				}
				loop := append([]float64(nil), x...)
				if tA == NoTrans {
					trsvUpperNoTrans(diag, r, loop)
				} else {
					trsvUpperTrans(diag, r, loop)
				}
				sameBits(t, name+" against the Go loop", got, loop)
			}
		}
	}
}

// wideTriangle is an n×n float32 view with leading dimension n+pad, off
// elements into a NaN-poisoned backing array, whose entries are normal and
// whose diagonal dominates, so that a solve stays finite at n = 512 and
// every product is rounded. Both triangles are filled: the Upper cases read
// one, the Lower cases the other.
func wideTriangle(rng *rand.Rand, n, pad, off int) *dense.M32 {
	a, _ := genMat[float32](&level2Gen{}, n, n, pad, off)
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] = float32(rng.NormFloat64())
		}
		col[j] = float32(2*math.Sqrt(float64(n)) + rng.Float64())
	}
	return a
}

// TestTrsvWideBitIdentical holds Trsv on a float32 triangle under a float64
// x to Trsv on the triangle's float64 widening, bit for bit: every n from 1
// to 70 (each vector block and each of the n mod 8 columns the Go loops
// take) and the workloads' 256 and 512, with right-hand sides that are
// normal, that hold zeros (whose columns the NoTrans solve skips, alone and
// in runs that zero a whole block), and that hold an Inf or a NaN, whose
// blocks the kernels hand back to the Go loop rather than store.
func TestTrsvWideBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sizes := []int{256, 512}
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		r := wideTriangle(rng, n, rng.Intn(4), rng.Intn(8))
		normal := make([]float64, n)
		for i := range normal {
			normal[i] = rng.NormFloat64()
		}
		zeros := append([]float64(nil), normal...)
		for i := range zeros {
			if rng.Intn(3) == 0 || (i/8)%4 == 1 {
				zeros[i] = 0
			}
		}
		inf := append([]float64(nil), normal...)
		inf[rng.Intn(n)] = math.Inf(1 - 2*rng.Intn(2))
		nan := append([]float64(nil), normal...)
		nan[rng.Intn(n)] = math.Float64frombits(0x7ff8000000000000 | uint64(rng.Intn(1<<20)))
		for name, x := range map[string][]float64{"normal": normal, "zeros": zeros, "inf": inf, "nan": nan} {
			trsvWideCase(t, fmt.Sprintf("n %d %s", n, name), r, x)
		}
	}
}

// FuzzTrsvWide is TestTrsvWideBitIdentical over fuzzer-chosen orders,
// strides, offsets and per-element value classes of the triangle and of x
// (level2Gen: subnormals, ±0, ±Inf, NaNs with payloads, magnitudes whose
// products overflow or underflow).
func FuzzTrsvWide(f *testing.F) {
	f.Add(uint8(40), uint8(3), uint8(5), []byte{0, 0x81, 0x32})
	f.Add(uint8(17), uint8(0), uint8(1), []byte{11, 10, 0x89, 0x8a, 0x8b, 0, 1, 12, 0x8c, 9, 9})
	f.Fuzz(func(t *testing.T, rows, pad, off uint8, classes []byte) {
		n := int(rows) % 80
		g := &level2Gen{classes: classes}
		r, _ := genMat[float32](g, n, n, int(pad)%5, int(off)%8)
		trsvWideCase(t, fmt.Sprintf("n %d", n), r, genVec[float64](g, n, int(off)%4))
	})
}
