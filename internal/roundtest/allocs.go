package roundtest

import (
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// ParkCaches puts the runtime's goroutine-parking records (sudogs) in steady
// state at the current GOMAXPROCS, so that an allocation test counts the
// code's allocations and not the runtime's: the runtime makes a record only
// when its processor's cache (at most 128) and the central one are empty,
// which a GC or a GOMAXPROCS change brings about. Parking 256 goroutines per
// processor at once and releasing them leaves enough in circulation; nothing
// between it and the measurement may start a GC.
func ParkCaches() {
	runtime.GC()
	var started, done sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 256*runtime.GOMAXPROCS(0); i++ {
		started.Add(1)
		done.Add(1)
		go func() { started.Done(); <-release; done.Done() }()
	}
	started.Wait()
	time.Sleep(time.Millisecond) // every goroutine reaches its receive
	close(release)
	done.Wait()
}

// MedianMallocs is the number of heap objects one call of f allocates,
// anywhere in the process, at the current GOMAXPROCS (testing.AllocsPerRun
// pins one): after ParkCaches and one more call, the median MemStats.Mallocs
// count of eleven calls, with the collector held off so that no pool or
// parking-record refill counts. Warm f's own pools first.
func MedianMallocs(f func()) uint64 {
	ParkCaches()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	counts := make([]uint64, 11)
	var before, after runtime.MemStats
	for i := range counts {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		counts[i] = after.Mallocs - before.Mallocs
	}
	slices.Sort(counts)
	return counts[len(counts)/2]
}
