//go:build !race

package tcqr

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"tcqr/internal/roundtest"
)

// TestDowndateAllocatesStripsNotCopies pins what a downdate allocates: the
// float32 Q′ and R′ it returns, the two float64 n×n matrices R′ is computed
// in (the pristine R, overwritten by the recovery's solve, and R′ itself),
// and one two-strip float64 workspace for Q′ = Q₁·M — no float64 copy of Q,
// of Q₁·M or of its narrowing. 64 KB covers the rest: the k removed rows of
// Q and B = Q₂·R in float64, the rotations, and the GEMM's pooled buffers.
// The median of seven calls with the collector held off counts, as the
// allocation tests of internal/gram do, so a pool refill does not. (Not
// under -race: the detector drops a quarter of sync.Pool puts, so the GEMM's
// pack buffers are allocated afresh.)
func TestDowndateAllocatesStripsNotCopies(t *testing.T) {
	const m, n, k = 2064, 128, 16
	f, err := Factorize(testMatrix(91, m, n, 100), Config{})
	if err != nil {
		t.Fatal(err)
	}
	down := func() {
		if _, err := UpdateRemoveRows(f, k, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		down()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	down()
	bytes := make([]uint64, 7)
	for i := range bytes {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		down()
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(bytes)
	h := (m - k) / ((m - k + downdateStripRows - 1) / downdateStripRows) // 256: eight even strips
	want := uint64((m-k)*n*4 + n*n*(4+8+8) + 2*h*n*8 + 64<<10)
	if got := bytes[len(bytes)/2]; got > want {
		t.Errorf("a %dx%d downdate of %d rows allocated %d bytes, want at most %d", m, n, k, got, want)
	}
}

// TestAppendAllocatesViewsOnce pins the object count of an append: the
// compact-WY loop re-points its seven per-block operand views instead of
// allocating them per block, so a 2048×128 append of 16 rows (eight blocks)
// makes 32 objects, against 82 when each block took fresh views. The gate is
// 40. It counts with roundtest.MedianMallocs at the test's GOMAXPROCS, not
// with testing.AllocsPerRun, which pins one processor: make check runs it at
// one, two and four, where the GEMM under the loop shares its rows with
// workers.
func TestAppendAllocatesViewsOnce(t *testing.T) {
	const m, n, k = 2048, 128, 16
	f, err := Factorize(testMatrix(91, m, n, 100), Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := randBlock(92, k, n, 1)
	up := func() {
		if _, err := UpdateAppendRows(f, v, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		up()
	}
	if got := roundtest.MedianMallocs(up); got > 40 {
		t.Errorf("a %dx%d append of %d rows allocated %d objects, want at most 40", m, n, k, got)
	}
}
