//go:build !race

package tcqr

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"tcqr/internal/matgen"
)

// TestFactorizeRAllocBytes: a warm FactorizeR takes the m×n buffer it
// factors in from the pool, so a 4096×128 float64 factorization (a
// serve-cold-tall request's) allocates at most 0.1 × 4mn bytes — R (4n²,
// 0.03 × 4mn here), the scales and the result — where Factorize allocates
// 4mn for Q besides. The median of seven calls with the collector held off
// counts, as in the other allocation tests: a cycle empties the pools. (Not
// under -race: the detector drops a quarter of sync.Pool puts.)
func TestFactorizeRAllocBytes(t *testing.T) {
	const m, n = 4096, 128
	a := matgen.WithCond(rand.New(rand.NewSource(76)), m, n, 1e3, matgen.Geometric)
	f := func() {
		if _, err := FactorizeR(a, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 5; i++ {
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
	got, limit := bytes[len(bytes)/2], uint64(4*m*n/10)
	t.Logf("%d bytes per FactorizeR, %.3f × 4mn", got, float64(got)/float64(4*m*n))
	if got > limit {
		t.Errorf("a warm %dx%d FactorizeR allocates %d bytes, over the %d-byte gate (0.1 × 4mn)", m, n, got, limit)
	}
}
