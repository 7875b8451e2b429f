package rgs

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"tcqr/internal/dense"
	"tcqr/internal/matgen"
)

// TestFactorAllocBytes: Factor works in one m×n float32 buffer, the Q it
// returns — its sweep narrows and scales into it, the panels factor in it,
// and their tile-tree workspace and the GEMM's come from free lists — so a
// warm 2048×512 factorization with the default options allocates at most
// 1.2 × 4·(mn + n²) bytes, Q and R and a little more, from a float32 input
// and from a float64 one alike. Each source counts the median of seven calls
// after three warm ones, with the collector held off, as the CAQR panel's
// allocation test does.
func TestFactorAllocBytes(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const m, n = 2048, 512
	a64 := matgen.BadlyScaled(rand.New(rand.NewSource(37)), m, n, 3)
	a32 := dense.ToF32(a64)
	limit := uint64(12 * 4 * (m*n + n*n) / 10)
	for _, src := range []string{"float32", "float64"} {
		f := func() {
			var err error
			if src == "float32" {
				_, err = Factor(a32, Options{})
			} else {
				_, err = Factor(a64, Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			f()
		}
		bytes := make([]uint64, 7)
		for i := range bytes {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			bytes[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(bytes)
		got := bytes[len(bytes)/2]
		t.Logf("%s source: %d bytes per factorization, %.2f× 4·(mn + n²)", src, got, float64(got)/float64(4*(m*n+n*n)))
		if got > limit {
			t.Errorf("%s source: a warm %dx%d Factor allocates %d bytes, over the %d-byte gate (1.2 × 4·(mn + n²))", src, m, n, got, limit)
		}
	}
}
