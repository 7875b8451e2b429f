package serve

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tcqr"
	"tcqr/internal/faultinject"
)

// CoalescerStats is a snapshot of the coalescer counters.
type CoalescerStats struct {
	// Batches counts flushes that reached the backend (each issues exactly one
	// backend call; a flush the pool refused is not one).
	Batches int64 `json:"batches"`
	// BatchedRequests counts requests that went through batches of size > 1.
	BatchedRequests int64 `json:"batched_requests"`
	// MultiSolveCalls counts flushes executed as one SolveMultiWithFactor.
	MultiSolveCalls int64 `json:"multi_solve_calls"`
	// SingleSolveCalls counts size-1 flushes (plain SolveWithFactor).
	SingleSolveCalls int64 `json:"single_solve_calls"`
	// MaxBatch is the largest batch flushed so far.
	MaxBatch int64 `json:"max_batch"`
}

// solveOutcome is what one coalesced request gets back: its own column of
// the batched solution and its own column's hazards.
type solveOutcome struct {
	x          []float64
	iterations int
	converged  bool
	optimality float64
	hazards    []tcqr.Hazard
	batched    int // batch size this request rode in
	queueWait  time.Duration
	solveTime  time.Duration
	err        error
}

// solveWaiter is one parked request inside a batch.
type solveWaiter struct {
	b  []float64
	at time.Time
	ch chan solveOutcome // buffered(1): the flusher never blocks on it
}

// solveFingerprint keys batch compatibility: requests may share a multi-RHS
// call only when they resolved the same entry — the pointer, not its key: a
// name can pass to another matrix once its entry is evicted (cache.go), and
// an uncached entry has none — and the refinement would be configured
// identically. The tolerance is compared by its bits, so a NaN still equals
// itself and cannot strand a map entry.
type solveFingerprint struct {
	entry    *Entry
	method   tcqr.RefineMethod
	tolBits  uint64
	maxIters int
}

// batch gathers same-fingerprint solves while it waits for a worker.
type batch struct {
	entry   *Entry
	opts    tcqr.SolveOptions
	fp      solveFingerprint
	waiters []*solveWaiter // appended under Coalescer.mu until sealed, fixed after
}

// Coalescer batches solve requests against the same cached factorization (and
// identical solve options) into a single SolveLeastSquaresMulti-shaped call.
// A batch is N per-column refinements — the same refinement, with the
// request's method, a solo request runs, so the answer does not depend on who
// else rode along — run concurrently under one pool slot; what it saves is
// admission and scheduling, not arithmetic.
//
// The pool queue is the coalescing window. A solve that finds no open batch
// for its fingerprint opens one and hands it to the pool at once; the batch
// stays open to same-fingerprint arrivals for as long as it sits in the queue
// (or until MaxBatch detaches it), and the worker that dequeues it seals it
// and runs whoever gathered. An idle pool therefore serves a lone request
// with no added wait, and a saturated one — the only time sharing a slot
// saves anything — batches everything that arrives behind the busy workers.
// MaxBatch 1 forbids batching.
//
// One mutex guards the pending map: it is held for a map lookup and an
// append, against solves that take milliseconds. A batch holds its *Entry,
// which is immutable, so a flush reads the factors its requests resolved no
// matter what the cache has done with the key since.
type Coalescer struct {
	maxBatch int
	backend  Backend
	// run executes a flush; the server points it at the worker pool so
	// coalesced batches obey the same admission control as everything else.
	run func(fn func()) error
	// onFlush, when set, observes the size of every batch that reaches the
	// backend (the server wires it to the batch-size histogram). Set before
	// serving begins; not synchronized.
	onFlush func(size int)

	mu      sync.Mutex
	pending map[solveFingerprint]*batch // open batches, each already handed to run

	batches     atomic.Int64
	batchedReqs atomic.Int64
	multiCalls  atomic.Int64
	singleCalls atomic.Int64
	maxSeen     atomic.Int64
}

// NewCoalescer builds a coalescer. run executes batch flushes (one call per
// batch); nil runs flushes inline.
func NewCoalescer(maxBatch int, be Backend, run func(fn func()) error) *Coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if run == nil {
		run = func(fn func()) error { fn(); return nil }
	}
	return &Coalescer{
		maxBatch: maxBatch,
		backend:  be,
		run:      run,
		pending:  make(map[solveFingerprint]*batch),
	}
}

// Submit joins the open batch for this solve's fingerprint, or opens one and
// hands it to the pool, and returns this request's slice of the result. If
// ctx expires first the request abandons the batch (the batch still computes;
// the outcome is discarded).
func (c *Coalescer) Submit(ctx context.Context, entry *Entry, opts tcqr.SolveOptions, b []float64) solveOutcome {
	w := &solveWaiter{b: b, at: time.Now(), ch: make(chan solveOutcome, 1)}
	fp := solveFingerprint{entry: entry, method: opts.Method, tolBits: math.Float64bits(opts.Tol),
		maxIters: opts.MaxIterations}

	c.mu.Lock()
	bt := c.pending[fp]
	opened := bt == nil
	if opened {
		bt = &batch{entry: entry, opts: opts, fp: fp}
		c.pending[fp] = bt
	}
	bt.waiters = append(bt.waiters, w)
	if len(bt.waiters) >= c.maxBatch {
		delete(c.pending, fp) // full: the next arrival opens its own batch
	}
	c.mu.Unlock()
	if opened {
		// One goroutine per open batch, alive exactly as long as its pool
		// task: it blocks in run until a worker has run the flush or the pool
		// has refused it, so the queue depth bounds how many there are.
		go c.flush(bt)
	}

	select {
	case out := <-w.ch:
		return out
	case <-ctx.Done():
		return solveOutcome{err: ErrDeadline}
	}
}

// seal closes bt to new arrivals and returns everyone who gathered in it.
// Idempotent; after it bt.waiters is never appended to again.
func (c *Coalescer) seal(bt *batch) []*solveWaiter {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending[bt.fp] == bt {
		delete(c.pending, bt.fp)
	}
	return bt.waiters
}

// flush takes one batch through the pool: the worker that dequeues it seals
// it, runs it through the backend — a single SolveWithFactor for a lone
// request, a single SolveMultiWithFactor for a coalesced one — and distributes
// per-column outcomes to the waiters.
func (c *Coalescer) flush(bt *batch) {
	err := c.run(func() {
		// Failpoint: a delay here simulates a slow flush (every waiter in
		// the batch sees the latency, and the batch, not yet sealed, keeps
		// gathering arrivals meanwhile), an error or panic fails the whole
		// batch — the fan-out below delivers it to every waiter.
		if ferr := faultinject.Fire(siteCoalesceFlush); ferr != nil {
			panic(ferr)
		}
		waiters := c.seal(bt)
		k := len(waiters)
		// Counted here, where the backend call is issued and the size is
		// final: a flush the pool refuses never gets this far.
		c.batches.Add(1)
		if c.onFlush != nil {
			c.onFlush(k)
		}
		for {
			cur := c.maxSeen.Load()
			if int64(k) <= cur || c.maxSeen.CompareAndSwap(cur, int64(k)) {
				break
			}
		}
		// Everything before this moment — the wait for a worker — is this
		// batch's queue wait.
		start := time.Now()
		if k == 1 {
			w := waiters[0]
			c.singleCalls.Add(1)
			res, serr := c.backend.SolveWithFactor(bt.entry.F, bt.entry.A, w.b, bt.opts)
			out := solveOutcome{batched: 1, queueWait: start.Sub(w.at), solveTime: time.Since(start), err: serr}
			if serr == nil {
				out.x = res.X
				out.iterations = res.Iterations
				out.converged = res.Converged
				out.optimality = res.Optimality
				out.hazards = res.Hazards
			}
			w.ch <- out
			return
		}
		c.multiCalls.Add(1)
		c.batchedReqs.Add(int64(k))
		m := bt.entry.A.Rows
		rhs := tcqr.NewMatrix(m, k)
		for j, w := range waiters {
			copy(rhs.Col(j), w.b)
		}
		res, serr := c.backend.SolveMultiWithFactor(bt.entry.F, bt.entry.A, rhs, bt.opts)
		solveTime := time.Since(start)
		for j, w := range waiters {
			out := solveOutcome{batched: k, queueWait: start.Sub(w.at), solveTime: solveTime, err: serr}
			if serr == nil {
				out.x = append([]float64(nil), res.X.Col(j)...)
				out.iterations = res.Iterations[j]
				out.converged = res.Converged[j]
				out.optimality = res.Optimality[j]
				out.hazards = res.Hazards[j]
			}
			w.ch <- out
		}
	})
	if err != nil {
		// The scheduler rejected the whole flush (queue full, draining) or the
		// flush panicked partway: seal the batch if no worker did, and every
		// waiter that has not already received an outcome — the ones that
		// joined after the leader included — sees the error. The send is
		// non-blocking because a waiter whose buffered slot was filled before
		// a mid-distribution panic keeps its delivered outcome.
		for _, w := range c.seal(bt) {
			select {
			case w.ch <- solveOutcome{err: err}:
			default:
			}
		}
	}
}

// Stats returns a snapshot of the coalescer counters.
func (c *Coalescer) Stats() CoalescerStats {
	return CoalescerStats{
		Batches:          c.batches.Load(),
		BatchedRequests:  c.batchedReqs.Load(),
		MultiSolveCalls:  c.multiCalls.Load(),
		SingleSolveCalls: c.singleCalls.Load(),
		MaxBatch:         c.maxSeen.Load(),
	}
}
