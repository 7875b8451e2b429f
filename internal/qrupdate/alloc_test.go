//go:build !race

package qrupdate

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"tcqr/internal/dense"
	"tcqr/internal/matgen"
	"tcqr/internal/rgs"
)

// TestRKernelsAllocateOnlyR: a warm AppendR or DowndateR keeps only the
// float32 R′ it returns; the float64 working copies of R and of the row
// block come from the scratch pool. The median of seven calls with the
// collector held off counts, so a pool refill does not. (Not under -race:
// the detector drops a quarter of sync.Pool puts.)
func TestRKernelsAllocateOnlyR(t *testing.T) {
	const m, n, k = 2048, 128, 16
	rng := rand.New(rand.NewSource(5))
	a := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric)
	f, err := rgs.Factor(a, rgs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rms := math.Sqrt(dotSelf(a.Data) / float64(m*n))
	v := dense.New[float32](k, n)
	for i := range v.Data {
		v.Data[i] = float32(rms * rng.NormFloat64())
	}
	up, err := AppendR(f.R, v)
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"AppendR":   func() error { _, err := AppendR(f.R, v); return err },
		"DowndateR": func() error { _, err := DowndateR(up, v); return err },
	} {
		if err := call(); err != nil {
			t.Fatal(err)
		}
		old := debug.SetGCPercent(-1)
		bytes := make([]uint64, 7)
		for i := range bytes {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := call(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			bytes[i] = after.TotalAlloc - before.TotalAlloc
		}
		debug.SetGCPercent(old)
		slices.Sort(bytes)
		if got, want := bytes[len(bytes)/2], uint64(4*n*n+1<<10); got > want {
			t.Errorf("%s at %dx%d+%d allocated %d bytes, want at most %d: the float32 R′ and its header", name, m, n, k, got, want)
		}
	}
}
