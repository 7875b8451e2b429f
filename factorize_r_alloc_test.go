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
// factors in from a free list, so a 4096×128 float64 factorization (a
// serve-cold-tall request's) allocates at most 0.1 × 4mn bytes — R (4n²,
// 0.03 × 4mn here), the scales and the result — where Factorize allocates
// 4mn for Q besides. The median of seven calls with the collector held off
// counts, as in the other allocation tests.
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

// TestSolveLeastSquaresAllocBytes: SolveLeastSquares factors with
// FactorizeR, so a warm 2048×512 float64 solve (an lls-dense operation)
// allocates R (4n² bytes) and what the solve returns, not the 4mn-byte Q
// besides: at most 1.3 × 4n² + 64 KiB, where factoring with Factorize read
// about 5.5 MB. Counted as TestFactorizeRAllocBytes counts.
func TestSolveLeastSquaresAllocBytes(t *testing.T) {
	const m, n = 2048, 512
	rng := rand.New(rand.NewSource(77))
	a := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric)
	b := matgen.Normal(rng, m, 1).Col(0)
	f := func() {
		if _, err := SolveLeastSquares(a, b, SolveOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Warm calls, so the free lists hold workspaces grown to this shape.
	for i := 0; i < 10; i++ {
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
	got, limit := bytes[len(bytes)/2], uint64(13*4*n*n/10+64<<10)
	t.Logf("%d bytes per SolveLeastSquares, %.3f × 4n²", got, float64(got)/float64(4*n*n))
	if got > limit {
		t.Errorf("a warm %dx%d SolveLeastSquares allocates %d bytes, over the %d-byte gate (1.3 × 4n² + 64 KiB)", m, n, got, limit)
	}
}

// TestFactorizeRAllocBytesShapeSwitch: what a warm FactorizeR allocates does
// not depend on the shape the call before it factored, as in a daemon that
// serves serve-update-mix's 2048×128 requests and serve-cold-tall's 4096×128
// ones: alternating the two, the most any of seven measured 4096×128 calls
// allocates stays under TestFactorizeRAllocBytes's 0.1 × 4mn gate. The
// maximum counts, not the median, and the collector runs: every workspace
// comes from a free list, which a GC cycle does not empty, and the CAQR
// tile tree is laid out for each shape in the memory the other left.
func TestFactorizeRAllocBytesShapeSwitch(t *testing.T) {
	const m, n = 4096, 128
	rng := rand.New(rand.NewSource(78))
	tall := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric)
	short := matgen.WithCond(rng, m/2, n, 1e3, matgen.Geometric)
	f := func(a *Matrix) {
		if _, err := FactorizeR(a, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		f(tall)
		f(short)
	}
	var worst uint64
	for i := 0; i < 7; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f(tall)
		runtime.ReadMemStats(&after)
		worst = max(worst, after.TotalAlloc-before.TotalAlloc)
		f(short)
	}
	limit := uint64(4 * m * n / 10)
	t.Logf("at most %d bytes per %dx%d FactorizeR, %.3f × 4mn", worst, m, n, float64(worst)/float64(4*m*n))
	if worst > limit {
		t.Errorf("a warm %dx%d FactorizeR after a %dx%d one allocates up to %d bytes, over the %d-byte gate (0.1 × 4mn)", m, n, m/2, n, worst, limit)
	}
}
