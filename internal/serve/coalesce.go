package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tcqr"
	"tcqr/internal/faultinject"
)

// CoalescerStats is a snapshot of the coalescer counters.
type CoalescerStats struct {
	// Batches counts flushes (each issues exactly one backend call).
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
// the batched solution plus the shared hazard record.
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

// batch accumulates same-factorization solves until the window closes or
// the batch is full.
type batch struct {
	entry   *Entry
	opts    tcqr.SolveOptions
	fp      string
	waiters []*solveWaiter
	timer   *time.Timer
	flushed bool
}

// Coalescer batches solve requests that arrive within Window of each other
// against the same cached factorization (and identical solve options) into
// a single SolveLeastSquaresMulti-shaped call. A batch is N per-column
// refinements — the same refinement, with the request's method, a solo
// request runs, so the answer does not depend on who else was in the window —
// run concurrently under one pool slot; what it saves is admission and
// scheduling, not arithmetic. A batch flushes when its window timer fires or
// when it reaches MaxBatch, whichever is first. Window <= 0 disables
// coalescing (every request solves solo, still through the pool).
//
// One mutex guards the pending map: it is held for a map lookup and an
// append, against solves that take milliseconds. A batch holds its *Entry,
// which is immutable, so a flush reads the factors its requests resolved no
// matter what the cache has done with the key since.
type Coalescer struct {
	window   time.Duration
	maxBatch int
	backend  Backend
	// run executes a flush; the server points it at the worker pool so
	// coalesced batches obey the same admission control as everything else.
	run func(fn func()) error
	// onFlush, when set, observes every flushed batch size (the server wires
	// it to the batch-size histogram). Set before serving begins; not
	// synchronized.
	onFlush func(size int)

	mu      sync.Mutex
	pending map[string]*batch // solve fingerprint -> open batch

	batches     atomic.Int64
	batchedReqs atomic.Int64
	multiCalls  atomic.Int64
	singleCalls atomic.Int64
	maxSeen     atomic.Int64
}

// NewCoalescer builds a coalescer. run executes batch flushes (one call per
// batch); nil runs flushes inline.
func NewCoalescer(window time.Duration, maxBatch int, be Backend, run func(fn func()) error) *Coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if run == nil {
		run = func(fn func()) error { fn(); return nil }
	}
	return &Coalescer{
		window:   window,
		maxBatch: maxBatch,
		backend:  be,
		run:      run,
		pending:  make(map[string]*batch),
	}
}

// solveFingerprint keys batch compatibility: requests may share a multi-RHS
// call only when the refinement would be configured identically.
func solveFingerprint(key string, opts tcqr.SolveOptions) string {
	return fmt.Sprintf("%s|m%d-t%g-i%d-h%d", key, int(opts.Method), opts.Tol, opts.MaxIterations, int(opts.OnHazard))
}

// Submit parks a solve for entry until its batch flushes and returns this
// request's slice of the result. If ctx expires first the request abandons
// the batch (the batch still computes; the outcome is discarded).
func (c *Coalescer) Submit(ctx context.Context, entry *Entry, opts tcqr.SolveOptions, b []float64) solveOutcome {
	w := &solveWaiter{b: b, at: time.Now(), ch: make(chan solveOutcome, 1)}

	if c.window <= 0 || c.maxBatch == 1 {
		c.execute(&batch{entry: entry, opts: opts, waiters: []*solveWaiter{w}, flushed: true})
	} else {
		fp := solveFingerprint(entry.Key, opts)
		c.mu.Lock()
		bt := c.pending[fp]
		if bt == nil {
			bt = &batch{entry: entry, opts: opts, fp: fp}
			bt.timer = time.AfterFunc(c.window, func() { c.flush(bt) })
			c.pending[fp] = bt
		}
		bt.waiters = append(bt.waiters, w)
		full := len(bt.waiters) >= c.maxBatch
		c.mu.Unlock()
		if full {
			c.flush(bt)
		}
	}

	select {
	case out := <-w.ch:
		return out
	case <-ctx.Done():
		return solveOutcome{err: ErrDeadline}
	}
}

// flush detaches the batch from the pending map (idempotently — the window
// timer and the batch-full path can race) and executes it.
func (c *Coalescer) flush(bt *batch) {
	c.mu.Lock()
	if bt.flushed {
		c.mu.Unlock()
		return
	}
	bt.flushed = true
	delete(c.pending, bt.fp)
	if bt.timer != nil {
		bt.timer.Stop()
	}
	c.mu.Unlock()
	go c.execute(bt)
}

// execute runs one batch through the backend — a single SolveWithFactor for
// a solo request, a single SolveMultiWithFactor for a coalesced one — and
// distributes per-column outcomes to the waiters.
func (c *Coalescer) execute(bt *batch) {
	k := len(bt.waiters)
	if c.onFlush != nil {
		c.onFlush(k)
	}
	c.batches.Add(1)
	if k > 1 {
		c.batchedReqs.Add(int64(k))
	}
	for {
		cur := c.maxSeen.Load()
		if int64(k) <= cur || c.maxSeen.CompareAndSwap(cur, int64(k)) {
			break
		}
	}

	err := c.run(func() {
		// Failpoint: a delay here simulates a slow flush (every waiter in
		// the batch sees the latency), an error or panic fails the whole
		// batch — the fan-out below delivers it to every waiter.
		if ferr := faultinject.Fire(siteCoalesceFlush); ferr != nil {
			panic(ferr)
		}
		// Everything before this moment — the coalescing window plus the
		// pool queue — is this batch's queue wait.
		start := time.Now()
		if k == 1 {
			w := bt.waiters[0]
			res, serr := c.backend.SolveWithFactor(bt.entry.F, bt.entry.A, w.b, bt.opts)
			c.singleCalls.Add(1)
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
		m := bt.entry.A.Rows
		rhs := tcqr.NewMatrix(m, k)
		for j, w := range bt.waiters {
			copy(rhs.Col(j), w.b)
		}
		res, serr := c.backend.SolveMultiWithFactor(bt.entry.F, bt.entry.A, rhs, bt.opts)
		c.multiCalls.Add(1)
		solveTime := time.Since(start)
		for j, w := range bt.waiters {
			out := solveOutcome{batched: k, queueWait: start.Sub(w.at), solveTime: solveTime, err: serr}
			if serr == nil {
				out.x = append([]float64(nil), res.X.Col(j)...)
				out.iterations = res.Iterations[j]
				out.converged = res.Converged[j]
				out.optimality = res.Optimality[j]
				out.hazards = res.Hazards
			}
			w.ch <- out
		}
	})
	if err != nil {
		// The scheduler rejected the whole flush (queue full, draining,
		// deadline) or the flush panicked partway: every waiter that has not
		// already received an outcome sees the error. The send is
		// non-blocking because a waiter whose buffered slot was filled
		// before a mid-distribution panic keeps its delivered outcome.
		for _, w := range bt.waiters {
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

// PendingFlush flushes every pending batch immediately (graceful drain:
// parked requests must complete, not hang for a window that may never be
// serviced).
func (c *Coalescer) PendingFlush() {
	c.mu.Lock()
	bts := make([]*batch, 0, len(c.pending))
	for _, bt := range c.pending {
		bts = append(bts, bt)
	}
	c.mu.Unlock()
	for _, bt := range bts {
		c.flush(bt)
	}
}
