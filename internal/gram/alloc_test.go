package gram

import (
	"runtime"
	"testing"

	"tcqr/internal/roundtest"
)

// TestCAQRPanelAllocationsIndependentOfHeight: a CAQR panel allocates per
// call — its factors and the views of its width reduction; the tile trees'
// workspace comes from a free list — and nothing per tile, per tree level or
// per column split, so a 1024×32 panel (one level of four tiles) and an
// 8192×128 one (four leaves of two levels, 32 and then 4 tiles) allocate as
// often. Each shape is counted by roundtest.MedianMallocs at two processors,
// where the tiles and the batched products run on the parked helpers too.
func TestCAQRPanelAllocationsIndependentOfHeight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	allocs := map[string]uint64{}
	for _, s := range []struct {
		name string
		m, n int
	}{{"1024x32", 1024, 32}, {"8192x128", 8192, 128}} {
		a := randPanel(43, s.m, s.n)
		p := &CAQRPanel{}
		f := func() {
			if _, _, err := p.Factor(a); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			f()
		}
		allocs[s.name] = roundtest.MedianMallocs(f)
	}
	if allocs["1024x32"] != allocs["8192x128"] {
		t.Errorf("a 1024×32 CAQR panel allocates %d times, an 8192×128 one %d", allocs["1024x32"], allocs["8192x128"])
	}
}
