package blas

import (
	"math"
	"math/rand"
	"testing"

	"tcqr/internal/cpufeat"
	"tcqr/internal/dense"
)

// hostTileKernels lists the tile kernel families this CPU can run, Go first:
// the families tileKernel may hold here, which the tests below set one by
// one and hold to the Go loops.
func hostTileKernels() []kernel {
	ks := []kernel{kernelGo}
	if cpufeat.AVX2 {
		ks = append(ks, kernelYMM)
		if cpufeat.AVX512F {
			ks = append(ks, kernelZMM)
		}
	}
	return ks
}

var tileKernelNames = map[kernel]string{kernelGo: "go", kernelYMM: "ymm", kernelZMM: "zmm"}

// withTileKernel runs f with tileKernel set to kern and restores it after.
func withTileKernel(kern kernel, f func()) {
	defer func(was kernel) { tileKernel = was }(tileKernel)
	tileKernel = kern
	f()
}

// mgsClass fills an m×n matrix with one of the input classes the tile kernel
// must hand back or get right: normal data, and the same with signed zeros,
// subnormals, an Inf, a NaN with a payload, a zero column, a dependent
// column, or several of them at once.
func mgsClass(rng *rand.Rand, a *dense.M32, class int) {
	m, n := a.Rows, a.Cols
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] = float32(rng.NormFloat64())
		}
	}
	at := func() (int, int) { return rng.Intn(m), rng.Intn(n) }
	switch class {
	case 1: // signed zeros
		for t := 0; t < 1+m*n/5; t++ {
			i, j := at()
			a.Set(i, j, float32(math.Copysign(0, float64(rng.Intn(2)*2-1))))
		}
	case 2: // subnormals
		for t := 0; t < 1+m*n/7; t++ {
			i, j := at()
			a.Set(i, j, float32(rng.NormFloat64())*math.SmallestNonzeroFloat32*float32(1+rng.Intn(1000)))
		}
	case 3: // an Inf
		i, j := at()
		a.Set(i, j, float32(math.Inf(rng.Intn(2)*2-1)))
	case 4: // NaNs with payloads, possibly two that meet
		for t := 0; t < 1+rng.Intn(2); t++ {
			i, j := at()
			a.Set(i, j, math.Float32frombits(0x7fc00000|uint32(rng.Intn(1<<22))|uint32(rng.Intn(2))<<31))
		}
	case 5: // a zero column
		clear(a.Col(rng.Intn(n)))
	case 6: // a dependent column
		if n > 1 {
			j := 1 + rng.Intn(n-1)
			src := a.Col(rng.Intn(j))
			s := float32(rng.Intn(5) - 2)
			for i, v := range src {
				a.Col(j)[i] = s * v
			}
		}
	case 7: // huge values whose products overflow, tiny ones, and a zero column
		for t := 0; t < 1+m*n/9; t++ {
			i, j := at()
			a.Set(i, j, float32(rng.NormFloat64())*float32(math.Ldexp(1, 60+rng.Intn(60))))
		}
		clear(a.Col(rng.Intn(n)))
	}
}

// TestMGSTileBitIdentical holds gram.MGS's float32 path — MGSTile in place,
// the Go loop taking over wherever it hands back — to the Go loop alone, by
// Float32bits of Q and R and of the storage around a strided view, for every
// tile family the host runs. Every height from 1 to 300 and 488 and 511,
// every width up to 32, contiguous and strided, over the input classes of
// mgsClass.
func TestMGSTileBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	heights := make([]int, 0, 302)
	for m := 1; m <= 300; m++ {
		heights = append(heights, m)
	}
	heights = append(heights, 488, 511)
	kerns := hostTileKernels()
	for _, m := range heights {
		for n := 1; n <= min(m, 32); n++ {
			class := rng.Intn(8)
			pad := 0
			if (m+n)%2 == 1 {
				pad = 1 + rng.Intn(9)
			}
			parent := dense.New[float32](m+pad, n+1)
			for i := range parent.Data {
				parent.Data[i] = math.Float32frombits(0x7fc0dead)
			}
			mgsClass(rng, parent.View(pad/2, 1, m, n), class)
			want, wantR := parent.Clone(), dense.New[float32](n, n)
			goMGSFrom(want.View(pad/2, 1, m, n), wantR, 0, 0)
			for _, kern := range kerns {
				got, gotR := parent.Clone(), dense.New[float32](n, n)
				a := got.View(pad/2, 1, m, n)
				withTileKernel(kern, func() {
					k, j := MGSTile(a, a, gotR, make([]float32, MGSTileWork(m)))
					goMGSFrom(a, gotR, k, j)
				})
				for i := range got.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%s %dx%d class %d stride %d: Q element %d = %#x, Go loop %#x", tileKernelNames[kern], m, n, class, got.Stride, i,
							math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
					}
				}
				for i := range wantR.Data {
					if math.Float32bits(gotR.Data[i]) != math.Float32bits(wantR.Data[i]) {
						t.Fatalf("%s %dx%d class %d: R element %d = %#x, Go loop %#x", tileKernelNames[kern], m, n, class, i,
							math.Float32bits(gotR.Data[i]), math.Float32bits(wantR.Data[i]))
					}
				}
			}
		}
	}
}
