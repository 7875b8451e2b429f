package blas

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tcqr/internal/dense"
)

// maxWorkers reports the degree of parallelism used by level-3 kernels.
func maxWorkers() int { return runtime.GOMAXPROCS(0) }

// parallelRange splits [0, n) into contiguous chunks of at least minChunk
// and runs fn on each chunk, possibly concurrently. Chunk boundaries depend
// only on n and minChunk, so output ownership (and therefore the result) is
// deterministic.
func parallelRange(n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	workers := maxWorkers()
	chunks := (n + minChunk - 1) / minChunk
	if chunks > workers {
		chunks = workers
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// taskRunner is the work interface of parallelTasks. It is an interface
// rather than a func value so pooled job structs can be dispatched without
// any per-call closure allocation — the packed GEMM's zero-allocation hot
// path depends on this.
type taskRunner interface {
	runTask(task int)
}

// parallelTasks runs tasks 0..n-1, each exactly once, on up to GOMAXPROCS
// workers pulling from an atomic counter. The task decomposition is fixed by
// the caller and every task owns disjoint output, so results do not depend
// on the number of workers or the scheduling order; with a single worker no
// goroutines are spawned and nothing is allocated.
func parallelTasks(n int, r taskRunner) {
	if n <= 0 {
		return
	}
	workers := maxWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for t := 0; t < n; t++ {
			r.runTask(t)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				t := int(atomic.AddInt64(&next, 1)) - 1
				if t >= n {
					return
				}
				r.runTask(t)
			}
		}()
	}
	wg.Wait()
}

// gemvJob is one float64 Gemv split into fixed chunks of y: the caller runs
// chunks together with whichever parked helpers get a core, each claiming the
// next chunk from one counter. Two other shapes were measured and rejected
// (DESIGN.md §7): a goroutine per chunk per call (parallelRange) allocates,
// and a caller that hands the work to one helper and waits for it leaves its
// own core idle until the helper is scheduled.
//
// Lifetime: refs counts the caller plus every helper a wake-up reached. A
// helper may be scheduled only after the caller has returned; it then finds
// no chunk left, and because it still holds a reference the job has not been
// recycled under it. The last reference returns the job to gemvJobs.
type gemvJob struct {
	tA     Transpose
	alpha  float64
	a      dense.M64 // by value: keeping the caller's pointer would make it escape
	x, y   []float64
	chunk  int          // rows (NoTrans) or columns (Trans) per chunk, a multiple of eight
	chunks int          // chunks in the call
	next   atomic.Int64 // the next chunk to claim
	left   atomic.Int64 // chunks not yet finished
	refs   atomic.Int32
	fin    chan struct{} // the helper that finishes the last chunk wakes the caller
}

var (
	// gemvJobs holds released jobs for reuse, as many as callers have split at
	// once, up to eight. It is a channel and not a sync.Pool because a pool is
	// emptied by every GC cycle, and a refinement that allocates between its
	// products would then allocate a job again after each cycle.
	gemvJobs = make(chan *gemvJob, 8)
	// gemvWake is unbuffered, so a non-blocking send reaches a helper only if
	// one is parked in its receive: a busy helper is skipped, never waited for.
	gemvWake    = make(chan *gemvJob)
	gemvHelpers atomic.Int32 // helpers started; they live as long as the process
)

// gemvSplitMin is the smallest A, in elements, whose float64 Gemv is split.
// The 4096×128 row of BenchmarkGemv64Shapes (serve-cold-tall's A, 4 MB,
// twice one core's L2) fixes it: at -cpu 2 split runs N in 57 µs and T in 67
// against 91 and 127 for vector (medians of ten). The 1024×256 row (2 MB, the
// size of serve-hit's and serve-update-mix's A) is within this host's noise
// either way, and split at that size serve-hit was slower in four pairs of
// four and serve-update-mix spent 10 % more CPU for no shorter operation
// (CHANGES.md, PR 25).
const gemvSplitMin = 4096 * 128

// gemvChunks is how many chunks a split Gemv has: enough that a helper which
// starts late still takes a share, few enough that a NoTrans chunk, a quarter
// of the rows, reads each column in runs of kilobytes.
const gemvChunks = 4

// gemvSplit returns the rows (NoTrans) or columns (Trans) per chunk of a
// float64 Gemv on an r×c A and how many helpers to wake for it; helpers is 0
// when it runs on the caller alone: below gemvSplitMin, and on one processor,
// where nothing past this function runs.
func gemvSplit(tA Transpose, r, c int) (chunk, helpers int) {
	if r*c < gemvSplitMin {
		return 0, 0
	}
	procs := maxWorkers()
	if procs < 2 {
		return 0, 0
	}
	d := r
	if tA == Trans {
		d = c
	}
	chunk = (d + 8*gemvChunks - 1) / (8 * gemvChunks) * 8
	return chunk, min(procs, (d+chunk-1)/chunk) - 1
}

// gemvParallel computes y += α·op(A)·x in chunks of chunk rows (NoTrans) or
// columns (Trans), a multiple of eight, on the caller and up to helpers parked
// helpers. Each chunk runs the serial kernels on its window of A, and they
// give every element of y exactly the operations they give it on the whole
// matrix, so the bits depend neither on the chunking nor on who runs which
// chunk.
func gemvParallel(tA Transpose, alpha float64, a *dense.M64, x, y []float64, chunk, helpers int) {
	var job *gemvJob
	select {
	case job = <-gemvJobs:
	default:
		job = &gemvJob{fin: make(chan struct{}, 1)}
	}
	job.tA, job.alpha, job.a, job.x, job.y = tA, alpha, *a, x, y
	job.chunk, job.chunks = chunk, (len(y)+chunk-1)/chunk
	job.next.Store(0)
	job.left.Store(int64(job.chunks))
	job.refs.Store(1)
	for h := gemvHelpers.Load(); h < int32(helpers); h = gemvHelpers.Load() {
		if gemvHelpers.CompareAndSwap(h, h+1) {
			go gemvHelper()
		}
	}
	woke := 0
	for ; woke < helpers; woke++ {
		job.refs.Add(1)
		select {
		case gemvWake <- job:
			continue
		default:
		}
		job.refs.Add(-1)
		break // no helper is parked
	}
	if woke > 0 {
		// A woken helper waits in this processor's run-next slot, where an idle
		// processor steals it only after a back-off (tens of µs on this host).
		// Yielding runs the helper here at once and puts the caller on the
		// global queue, which an idle processor takes from without one.
		runtime.Gosched()
	}
	if !job.work() {
		<-job.fin // a helper holds the last chunk
	}
	job.release()
}

func gemvHelper() {
	for job := range gemvWake {
		if job.work() {
			job.fin <- struct{}{}
		}
		job.release()
	}
}

// work runs chunks until none is left to claim and reports whether it
// finished the last one.
func (j *gemvJob) work() (last bool) {
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return false
		}
		lo := c * j.chunk
		hi := min(lo+j.chunk, len(j.y))
		if j.tA == NoTrans {
			w := window(&j.a, lo, 0, hi-lo, j.a.Cols)
			gemvN(j.alpha, &w, j.x, j.y[lo:hi])
		} else {
			w := window(&j.a, 0, lo, j.a.Rows, hi-lo)
			gemvT(j.alpha, &w, j.x, j.y[lo:hi])
		}
		if j.left.Add(-1) == 0 {
			return true
		}
	}
}

func (j *gemvJob) release() {
	if j.refs.Add(-1) == 0 {
		j.a, j.x, j.y = dense.M64{}, nil, nil
		select {
		case gemvJobs <- j:
		default: // eight are kept already
		}
	}
}
