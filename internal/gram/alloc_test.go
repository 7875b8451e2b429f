//go:build !race

package gram

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestCAQRPanelAllocationsIndependentOfHeight: a CAQR panel allocates per
// call — its factors and the views of its width reduction; the tile trees'
// workspace comes from a pool — and nothing per tile, per tree level or per
// column split, so a 1024×32 panel (one level of four tiles) and an
// 8192×128 one (four leaves of two levels, 32 and then 4 tiles) allocate as
// often. Each call is counted with runtime.MemStats at two processors,
// where the tiles and the batched products run on the parked helpers too,
// after fillParkCaches and one more call, and the shapes compare the median
// count of eleven calls. The collector is held off meanwhile: a GC cycle
// empties the runtime's central cache of parking records and the GEMM's pack
// buffer pools, whose refills would count against the larger panel only because
// its garbage starts more cycles; and the median leaves out the odd call in
// which the runtime still allocates a parking record or a pool's buffer
// moves between processors. (Not under -race: the detector's runtime
// allocates when goroutines hand work to each other.)
func TestCAQRPanelAllocationsIndependentOfHeight(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(100))
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
		debug.SetGCPercent(100)
		fillParkCaches()
		debug.SetGCPercent(-1)
		f()
		counts := make([]uint64, 11)
		for i := range counts {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			counts[i] = after.Mallocs - before.Mallocs
		}
		slices.Sort(counts)
		allocs[s.name] = counts[len(counts)/2]
	}
	if allocs["1024x32"] != allocs["8192x128"] {
		t.Errorf("a 1024×32 CAQR panel allocates %d times, an 8192×128 one %d", allocs["1024x32"], allocs["8192x128"])
	}
}

// fillParkCaches puts the runtime's goroutine-parking records in steady
// state at the current GOMAXPROCS, as internal/blas's allocation tests do: a
// goroutine that parks on a channel takes a record from its processor's
// cache or the central one, and the runtime allocates one only when both are
// empty, which a GC or a GOMAXPROCS change brings about. Parking 256
// goroutines per processor once leaves enough in circulation.
func fillParkCaches() {
	runtime.GC()
	n := 256 * runtime.GOMAXPROCS(0)
	var started, done sync.WaitGroup
	started.Add(n)
	done.Add(n)
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			started.Done()
			<-release
			done.Done()
		}()
	}
	started.Wait()
	time.Sleep(time.Millisecond) // every goroutine reaches its receive
	close(release)
	done.Wait()
}
