package lls_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tcqr"
	"tcqr/internal/dense"
	"tcqr/internal/lls"
	"tcqr/internal/matgen"
)

// TestWorkloadSolvesKeepX pins, by Float64bits, the X that CGLS returns at
// the default tolerance and iteration cap for the solves the benchmark's
// workloads make: a κ 1e3 geometric A with standard normal right-hand sides,
// preconditioned by the R of tcqr.Factorize under the default Config, at the
// dense shape (2048×512), the cache-hit shape (1024×256), the cold tall
// shape (4096×128), and a 2048×128 epoch reached by appending 16 rows and
// removing them again, as the update workload does. A change to when CGLS
// stops may shorten these runs; it must not change the answer they return.
func TestWorkloadSolvesKeepX(t *testing.T) {
	cases := []struct {
		name   string
		m, n   int
		rhs    int
		update bool
		want   uint64
	}{
		{"1024x256", 1024, 256, 8, false, 0xbffd492b480d4e0b},
		{"2048x512", 2048, 512, 2, false, 0x6b3138a0f5e304ca},
		{"4096x128", 4096, 128, 2, false, 0x2742ae9579f67efd},
		{"2048x128+16-16", 2048, 128, 2, true, 0x2cebf49f70f6d41d},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(90 + i)))
			a := matgen.WithCond(rng, tc.m, tc.n, 1e3, matgen.Geometric)
			f, err := tcqr.Factorize(a, tcqr.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.update {
				v := matgen.Normal(rng, 16, tc.n)
				v.Scale(rmsOf(a))
				if f, err = tcqr.UpdateAppendRows(f, tcqr.ToFloat32(v), tcqr.Config{}); err != nil {
					t.Fatal(err)
				}
				if f, err = tcqr.UpdateRemoveRows(f, 16, tcqr.Config{}); err != nil {
					t.Fatal(err)
				}
			}
			b := matgen.Normal(rng, tc.m, tc.rhs)
			h := fnv.New64a()
			var buf [8]byte
			iters := 0
			for j := 0; j < tc.rhs; j++ {
				res := lls.CGLS(a, b.Col(j), f.R, 0, 0)
				iters += res.Iterations
				for _, v := range res.X {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
			t.Logf("%d right-hand sides, %d iterations", tc.rhs, iters)
			if runtime.GOARCH != "amd64" {
				return // bits recorded on amd64; other ports may fuse multiply-adds in the Go loops
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("X hash %#016x, recorded %#016x", got, tc.want)
			}
		})
	}
}

// rmsOf is the root mean square of a's elements, the scale the update
// workload draws its appended rows at.
func rmsOf(a *dense.M64) float64 {
	var s float64
	for _, v := range a.Data {
		s += v * v
	}
	return math.Sqrt(s / float64(len(a.Data)))
}
