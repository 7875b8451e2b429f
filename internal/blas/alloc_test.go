package blas

import (
	"math/rand"
	"runtime"
	"testing"

	"tcqr/internal/dense"
)

// TestGemmAllocationFree holds the packed GEMM — plain, hooked with counts,
// with its rows split between workers — and GemmBatch to zero heap
// allocations per call at one, two and four processors, the parked helpers
// included. testing.AllocsPerRun would pin GOMAXPROCS to 1, where the caller
// runs every task itself, so allocsPerCall counts with runtime.MemStats,
// after roundtest.ParkCaches has put the runtime's own parking records in
// steady state.
func TestGemmAllocationFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(14))
	a32, b32, c32 := randMatT[float32](rng, 512, 96), randMatT[float32](rng, 96, 112), randMatT[float32](rng, 512, 112)
	a64, b64, c64 := randMatT[float64](rng, 512, 96), randMatT[float64](rng, 96, 112), randMatT[float64](rng, 512, 112)
	q, r, rc := randMatT[float32](rng, 700, 64), randMatT[float32](rng, 700, 64), randMatT[float32](rng, 64, 64)
	const batch = 8
	as, bs, cs := make([]*dense.M32, batch), make([]*dense.M32, batch), make([]*dense.M32, batch)
	for i := range as {
		as[i], bs[i], cs[i] = randMatT[float32](rng, 256, 32), randMatT[float32](rng, 32, 32), randMatT[float32](rng, 256, 32)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for name, fn := range map[string]func(){
			"float32":   func() { Gemm(NoTrans, NoTrans, 1, a32, b32, 0, c32) },
			"float64":   func() { Gemm(NoTrans, NoTrans, 1, a64, b64, 0, c64) },
			"hooked":    func() { GemmHooked(NoTrans, NoTrans, 1, a32, b32, 0.5, c32, &f16Hook, &f16Hook, true) },
			"row split": func() { Gemm(Trans, NoTrans, 1, q, r, 0, rc) },
			"batch":     func() { GemmBatch(NoTrans, NoTrans, 1, as, bs, 0, cs) },
		} {
			if n := allocsPerCall(100, fn); n != 0 {
				t.Errorf("%s at %d procs: %v allocs per call, want 0", name, procs, n)
			}
		}
	}
}

// TestGemmPackedBBounded: a wide output whose op(B) is larger than gemmBMax in
// one k-slab is packed a block of columns at a time, so the shared buffer
// holds at most max(gemmBMax, kc·nc) elements instead of growing with n, and
// the blocks change no bit and no count. A pooled job's workspace never
// shrinks, so the free list is emptied before the call whose allocations are
// counted, which then makes its workspace afresh.
func TestGemmPackedBBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(v int) { gemmBMax = v }(gemmBMax)
	rng := rand.New(rand.NewSource(16))
	const m, n, k = 40, 2000, 40
	a, b, c0 := specialsMat32(rng, m, k), specialsMat32(rng, k, n), randMatT[float32](rng, m, n)
	wantOv, wantUf := f16Counts(a, b)
	withBlockConfig(t, 32, 16, 24, 1, func() {
		want := c0.Clone()
		gemmBMax = 1 << 20
		GemmHooked(NoTrans, NoTrans, 1.25, a, b, 0.5, want, &f16Hook, &f16Hook, true)

		gemmBMax = 16 * 48 // one slab of op(B) is 16·2000
		got := c0.Clone()
		gemmJobs32.free = nil
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ov, uf := GemmHooked(NoTrans, NoTrans, 1.25, a, b, 0.5, got, &f16Hook, &f16Hook, true)
		runtime.ReadMemStats(&after)
		sameBits(t, "column blocks against one block", got.Data, want.Data)
		if ov != wantOv || uf != wantUf {
			t.Errorf("counted %d overflows, %d underflows; the operands hold %d, %d", ov, uf, wantOv, wantUf)
		}
		// Packed op(A) (32·16) and op(B) (16·48) plus the job: a few KB. One
		// slab of the whole op(B) alone would be 125 KB.
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 16<<10 {
			t.Errorf("a %dx%d·%dx%d GEMM allocated %d bytes, want at most 16 KiB", m, k, k, n, bytes)
		}
	})
}

// TestFreeListKeepsOnePerProcessor: a free list keeps at least one item per
// processor, so GOMAXPROCS concurrent callers (tcqrd's default number of
// factorizations at once) all put their workspaces back and draw them again
// without making new ones; at GOMAXPROCS 2 it still keeps freeListCap.
func TestFreeListKeepsOnePerProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 16} {
		runtime.GOMAXPROCS(procs)
		var f FreeList[int]
		want := max(freeListCap, procs)
		for i := 0; i < want+1; i++ {
			f.Put(new(int))
		}
		if len(f.free) != want {
			t.Errorf("GOMAXPROCS %d: a list kept %d of %d items, want %d", procs, len(f.free), want+1, want)
		}
	}
}

// TestGemmPanelsFitTheCall: a GEMM's op(A) panels are sized by the call,
// one per macro-tile worker and no deeper than k, not one gemmMC·gemmKC
// panel per processor, so a small product on many processors leaves its
// pooled job holding about op(A)'s own size.
func TestGemmPanelsFitTheCall(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const m, n, k = 64, 64, 40
	rng := rand.New(rand.NewSource(17))
	a, b, c := randMatT[float64](rng, m, k), randMatT[float64](rng, k, n), randMatT[float64](rng, m, n)
	gemmJobs64.free = nil
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	job := gemmJobs64.Get()
	if limit := (m + 8*maxMR) * k; cap(job.bufA) > limit {
		t.Errorf("a %dx%d·%dx%d GEMM at GOMAXPROCS 8 keeps %d elements of op(A) panels, want at most %d", m, k, k, n, cap(job.bufA), limit)
	}
}
