package tcsim

import (
	"math/rand"
	"runtime"
	"testing"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/roundtest"
)

// TestEngineGemmAllocationFree: after warmup, an engine GEMM call must not
// allocate — operand rounding happens in the pooled GEMM job's packed
// panels, not in freshly allocated matrix copies, and the packed GEMM's
// tasks run on the caller and parked helpers, not on goroutines started per
// call. It counts with runtime.MemStats at one, two and four processors
// (testing.AllocsPerRun would pin one, where no helper is involved), after
// roundtest.ParkCaches.
func TestEngineGemmAllocationFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(31))
	a := specialsMat(rng, 512, 96)
	b := specialsMat(rng, 96, 112)
	c := dense.New[float32](512, 112)
	engines := []Engine{&FP32{}, &TensorCore{}, &TensorCore{TrackSpecials: true}, &BFloat16{TrackSpecials: true}, &TCEC{}, &TCEC{TrackSpecials: true}}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, e := range engines {
			for i := 0; i < 10; i++ { // warm the free lists
				e.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
			}
			roundtest.ParkCaches()
			const runs = 40
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				e.Gemm(blas.NoTrans, blas.NoTrans, 1, a, b, 0, c)
			}
			runtime.ReadMemStats(&after)
			if n := (after.Mallocs - before.Mallocs) / runs; n != 0 {
				t.Errorf("%s at %d procs: %v allocs per Gemm, want 0", e.Name(), procs, n)
			}
		}
	}
}
