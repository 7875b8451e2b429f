package blas

import (
	"runtime"
	"sync/atomic"

	"tcqr/internal/dense"
)

// maxWorkers reports the degree of parallelism used by level-3 kernels.
func maxWorkers() int { return runtime.GOMAXPROCS(0) }

// parallelRange splits [0, n) into contiguous chunks of at least minChunk,
// one per worker at most, and runs fn on each chunk, possibly concurrently
// (runTasks). Every chunk owns its part of the output, so the result does not
// depend on the chunking.
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
	ParallelTasks((n+size-1)/size, &rangeJob{fn: fn, n: n, size: size})
}

// rangeJob is one parallelRange call: task t is the chunk [t·size, t·size+size)
// of [0, n).
type rangeJob struct {
	fn      func(lo, hi int)
	n, size int
}

func (j *rangeJob) RunTask(t int) {
	lo := t * j.size
	j.fn(lo, min(lo+j.size, j.n))
}

// TaskRunner is the work interface of runTasks. It is an interface rather
// than a func value so pooled job structs (gemvJob, gemmJob, batchJob, the
// CAQR tile tree's levels in internal/gram, and internal/rgs's column
// sweeps) can be dispatched without any per-call closure allocation;
// parallelRange, whose callers pass a closure anyway, allocates its rangeJob.
type TaskRunner interface {
	RunTask(task int)
}

// ParallelTasks runs tasks 0..n-1 of r, each exactly once, on the caller and
// up to GOMAXPROCS−1 parked helpers. The decomposition is the caller's and
// every task owns disjoint output, so results do not depend on the number of
// workers or on who runs which task; with one processor or one task the
// caller runs them all and nothing shared is touched.
func ParallelTasks(n int, r TaskRunner) {
	runTasks(n, min(maxWorkers(), n)-1, r)
}

// gemvJob is one float64 Gemv split into fixed chunks of y, run by runTasks.
type gemvJob struct {
	tA    Transpose
	alpha float64
	a     dense.M64 // by value: keeping the caller's pointer would make it escape
	x, y  []float64
	chunk int // rows (NoTrans) or columns (Trans) per chunk, a multiple of eight
}

var gemvJobs = make(FreeList[gemvJob], 8)

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
// columns (Trans), a multiple of eight, on the caller and up to nHelpers
// parked helpers. Each chunk runs the serial kernels on its window of A, and
// they give every element of y exactly the operations they give it on the
// whole matrix, so the bits depend neither on the chunking nor on who runs
// which chunk.
func gemvParallel(tA Transpose, alpha float64, a *dense.M64, x, y []float64, chunk, nHelpers int) {
	job := gemvJobs.Get()
	job.tA, job.alpha, job.a, job.x, job.y, job.chunk = tA, alpha, *a, x, y, chunk
	runTasks((len(y)+chunk-1)/chunk, nHelpers, job)
	*job = gemvJob{}
	gemvJobs.Put(job)
}

func (j *gemvJob) RunTask(c int) {
	lo := c * j.chunk
	hi := min(lo+j.chunk, len(j.y))
	if j.tA == NoTrans {
		w := window(&j.a, lo, 0, hi-lo, j.a.Cols)
		gemvN(j.alpha, &w, j.x, j.y[lo:hi])
	} else {
		w := window(&j.a, 0, lo, j.a.Rows, hi-lo)
		gemvT(j.alpha, &w, j.x, j.y[lo:hi])
	}
}

// FreeList recycles pooled job structs, as many as callers use at once, up to
// its capacity; internal/rgs pools its column sweeps in one too. Every list
// holds eight: a job is in use only for one call, so eight covers up to eight
// concurrent callers, and a job released past that is left to the GC. It is
// a buffered channel and not a sync.Pool because a pool is emptied by every
// GC cycle, and a caller that allocates between its calls would then allocate
// a job again after each cycle.
type FreeList[J any] chan *J

// Get returns a recycled job, or a new zero one when the list is empty.
func (f FreeList[J]) Get() *J {
	select {
	case j := <-f:
		return j
	default:
		return new(J)
	}
}

// Put recycles j unless the list is full.
func (f FreeList[J]) Put(j *J) {
	select {
	case f <- j:
	default: // the list is full
	}
}

// taskJob is one runTasks call: the caller runs tasks together with whichever
// parked helpers get a core, each claiming the next task from one counter.
// Two other shapes were measured and rejected (DESIGN.md §7): a goroutine per
// task per call allocates, and a caller that hands the work to one helper and
// waits for it leaves its own core idle until the helper is scheduled.
//
// Lifetime: refs counts the caller plus every helper a wake-up reached. A
// helper may be scheduled only after the caller has returned; it then finds
// no task left, and because it still holds a reference the job has not been
// recycled under it. The last reference returns the job to taskJobs. The
// runner r is touched only by whoever claimed a task, and every claimed task
// has finished before the caller returns, so the caller may recycle r at once.
type taskJob struct {
	r    TaskRunner
	n    int
	next atomic.Int64 // the next task to claim
	left atomic.Int64 // tasks not yet finished
	refs atomic.Int32
	fin  chan struct{} // the helper that finishes the last task wakes the caller
}

var (
	taskJobs = make(FreeList[taskJob], 8)
	// wake is unbuffered, so a non-blocking send reaches a helper only if one
	// is parked in its receive: a busy helper is skipped, never waited for.
	wake           = make(chan *taskJob)
	helpersStarted atomic.Int32 // they live as long as the process
)

// runTasks runs tasks 0..n-1 of r on the caller and up to nHelpers parked
// helpers, starting helpers on first use. It allocates nothing once a job is
// in the free list.
func runTasks(n, nHelpers int, r TaskRunner) {
	if nHelpers <= 0 {
		for t := 0; t < n; t++ {
			r.RunTask(t)
		}
		return
	}
	job := taskJobs.Get()
	if job.fin == nil {
		job.fin = make(chan struct{}, 1)
	}
	job.r, job.n = r, n
	job.next.Store(0)
	job.left.Store(int64(n))
	job.refs.Store(1)
	for h := helpersStarted.Load(); h < int32(nHelpers); h = helpersStarted.Load() {
		if helpersStarted.CompareAndSwap(h, h+1) {
			go helper()
		}
	}
	woke := 0
	for ; woke < nHelpers; woke++ {
		job.refs.Add(1)
		select {
		case wake <- job:
			continue
		default:
		}
		job.refs.Add(-1)
		break // no helper is parked
	}
	if woke > 0 {
		// A woken helper waits in this processor's run-next slot, where an idle
		// processor steals it only after a back-off (tens of µs on a 2-vCPU
		// VM). Yielding runs the helper here at once and puts the caller on
		// the global queue, which an idle processor takes from without one.
		runtime.Gosched()
	}
	if !job.work() {
		<-job.fin // a helper holds the last task
	}
	job.release()
}

func helper() {
	for job := range wake {
		if job.work() {
			job.fin <- struct{}{}
		}
		job.release()
	}
}

// work runs tasks until none is left to claim and reports whether it
// finished the last one.
func (j *taskJob) work() (last bool) {
	for {
		t := int(j.next.Add(1)) - 1
		if t >= j.n {
			return false
		}
		j.r.RunTask(t)
		if j.left.Add(-1) == 0 {
			return true
		}
	}
}

func (j *taskJob) release() {
	if j.refs.Add(-1) == 0 {
		j.r = nil
		taskJobs.Put(j)
	}
}
