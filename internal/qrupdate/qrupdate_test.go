package qrupdate

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tcqr/internal/dense"
	"tcqr/internal/matgen"
	"tcqr/internal/rgs"
)

// rBitsHash is the FNV-1a hash of r's float32 bit patterns, column by column.
func rBitsHash(r *dense.Matrix[float32]) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for j := 0; j < r.Cols; j++ {
		for _, v := range r.Col(j) {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestRKernelBitsGolden pins, by Float32bits, the R′ of an append of k rows
// at the element RMS to the R of a κ 1e3 geometric A, and the R″ of
// removing those rows again, on shapes from one row to the daemon's
// 2048×128+16. Removing what was appended must give back R to within the
// float32 factor's rounding.
func TestRKernelBitsGolden(t *testing.T) {
	want := map[string][2]uint64{
		"2048x128-k16": {0xedfaf196a929a525, 0x3309f5c8e2feea61},
		"200x48-k8":    {0x360854cd302c92dc, 0xa2e2e4e4fcbeed9e},
		"777x100-k1":   {0xd9936dca48249460, 0x81fdb7de8e244b41},
		"1000x37-k5":   {0x8949b2164fade064, 0x1ffdf2f4acf8fc4d},
	}
	for _, sh := range []struct{ m, n, k int }{{2048, 128, 16}, {200, 48, 8}, {777, 100, 1}, {1000, 37, 5}} {
		name := fmt.Sprintf("%dx%d-k%d", sh.m, sh.n, sh.k)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sh.m + sh.n)))
			a := matgen.WithCond(rng, sh.m, sh.n, 1e3, matgen.Geometric)
			f, err := rgs.Factor(a, rgs.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rms := math.Sqrt(dotSelf(a.Data) / float64(sh.m*sh.n))
			v := dense.New[float32](sh.k, sh.n)
			for i := range v.Data {
				v.Data[i] = float32(rms * rng.NormFloat64())
			}
			up, err := AppendR(f.R, v)
			if err != nil {
				t.Fatal(err)
			}
			down, err := DowndateR(up, v)
			if err != nil {
				t.Fatal(err)
			}
			var diff, norm float64
			for j := 0; j < sh.n; j++ {
				for i, x := range f.R.Col(j) {
					d := float64(down.At(i, j)) - float64(x)
					diff += d * d
					norm += float64(x) * float64(x)
				}
			}
			if rel := math.Sqrt(diff / norm); rel > 1e-5 {
				t.Errorf("append then downdate moved R by %.3g relative", rel)
			}
			got := [2]uint64{rBitsHash(up), rBitsHash(down)}
			t.Logf("R′ %#016x, R″ %#016x", got[0], got[1])
			if runtime.GOARCH != "amd64" {
				return // recorded on amd64; other ports may fuse multiply-adds in the Go loops
			}
			if w, ok := want[name]; !ok || got != w {
				t.Errorf("R′ %#016x, R″ %#016x; recorded %#016x, %#016x", got[0], got[1], w[0], w[1])
			}
		})
	}
}

func dotSelf(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}
