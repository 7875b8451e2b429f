package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tcqr/internal/faultinject"
)

// Typed admission-control errors. The wire layer maps them to HTTP
// backpressure statuses (429, 503, 504).
var (
	// ErrQueueFull: the bounded queue is at capacity; the client should
	// back off and retry.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining: the server is shutting down and admits no new work
	// (Server.BeginDrain; admission refuses the request before the pool).
	ErrDraining = errors.New("serve: draining")
	// ErrDeadline: the request's deadline expired before its work started
	// (work already running is never abandoned mid-GEMM).
	ErrDeadline = errors.New("serve: deadline exceeded before work started")
)

// PoolStats is a snapshot of the worker pool counters.
type PoolStats struct {
	Workers       int   `json:"workers"`
	QueueCapacity int   `json:"queue_capacity"`
	Queued        int64 `json:"queued"`
	InFlight      int64 `json:"in_flight"`
	Completed     int64 `json:"completed"`
	RejectedFull  int64 `json:"rejected_queue_full"`
	Expired       int64 `json:"expired_in_queue"`
}

// Pool is a bounded worker pool with admission control: a fixed number of
// workers drain a fixed-depth queue, submissions past the depth are
// rejected immediately with ErrQueueFull, and tasks whose submitter stopped
// waiting (deadline or cancellation) while they were still queued are
// skipped (ErrDeadline) rather than run late. This
// is the only place compute concurrency is created, so GOMAXPROCS-heavy
// GEMM work cannot be oversubscribed by accepting unbounded requests.
type Pool struct {
	tasks   chan *poolTask
	workers int

	queued    atomic.Int64
	inFlight  atomic.Int64
	completed atomic.Int64
	rejFull   atomic.Int64
	expired   atomic.Int64
}

type poolTask struct {
	fn        func()
	enqueued  time.Time
	wait, ran time.Duration // queue wait and fn's run time, written by the worker
	cancelled atomic.Bool
	// done has one slot: the worker sends on it once fn returns (or the task
	// is skipped) and never touches the task again, so the submitter that
	// receives owns the task outright and recycles it.
	done     chan struct{}
	skipped  bool
	panicErr error // set by the worker when fn panicked; surfaced by run
}

// Tasks and deadline timers are recycled across requests, so a cache-hit
// solve allocates neither. A task goes back only from the submitter that
// received its completion; one abandoned on a deadline or a cancellation is
// left to the collector, because a worker may still hold it. A timer goes
// back stopped and drained, so it never fires into a later wait.
var (
	taskPool  = sync.Pool{New: func() any { return &poolTask{done: make(chan struct{}, 1)} }}
	timerPool sync.Pool
)

func getTimer(d time.Duration) *time.Timer {
	if tm, ok := timerPool.Get().(*time.Timer); ok {
		tm.Reset(d)
		return tm
	}
	return time.NewTimer(d)
}

func putTimer(tm *time.Timer) {
	if !tm.Stop() {
		// It fired: its value was either received or still waits in the
		// channel.
		select {
		case <-tm.C:
		default:
		}
	}
	timerPool.Put(tm)
}

// NewPool starts workers goroutines draining a queue of depth queueDepth.
func NewPool(workers, queueDepth int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	p := &Pool{tasks: make(chan *poolTask, queueDepth), workers: workers}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for t := range p.tasks {
		p.runOne(t)
	}
}

// runOne owns one dequeued task from accounting to completion. The counter
// transition — inFlight rises before queued falls, so AwaitIdle can never
// observe queued==0 && inFlight==0 while a dequeued task is about to run —
// happens first, as two bare atomic adds with nothing between them that
// could panic. Everything after it runs under a deferred recovery that
// restores the counters, signals t.done, and keeps the worker goroutine
// alive no matter what unwinds — a panicking task fn or a fault injected at
// the dequeue site. There is therefore no instant at which a dequeued task
// is counted in neither gauge, and no panic between dequeue and completion
// can strand the submitter or make AwaitIdle lie (hardening_test.go drives
// the window via the serve.pool.dequeue failpoint).
func (p *Pool) runOne(t *poolTask) {
	p.inFlight.Add(1)
	p.queued.Add(-1)
	defer func() {
		if r := recover(); r != nil && t.panicErr == nil {
			t.panicErr = fmt.Errorf("serve: panic in pool task: %v", r)
		}
		if t.skipped {
			p.expired.Add(1)
		} else {
			p.completed.Add(1)
		}
		p.inFlight.Add(-1)
		t.done <- struct{}{}
	}()
	if err := faultinject.Fire(sitePoolDequeue); err != nil {
		t.panicErr = err
		return
	}
	if t.cancelled.Load() {
		t.skipped = true
		return
	}
	t0 := time.Now()
	t.wait = t0.Sub(t.enqueued)
	t.fn()
	t.ran = time.Since(t0)
}

// run submits fn and blocks until it has run, the queue rejects it, or the
// wait ends: when cancel is closed or at deadline (zero: none), whichever
// comes first, with no context built for either. It returns fn's queue wait
// and run time. If fn panics, the panic is recovered and returned as the
// error (the worker survives). After a queue-full rejection fn is never run;
// after an ErrDeadline, however, a worker that dequeued the task in the same
// instant may still run fn to completion — its result is discarded, so fn
// must not assume it never runs once run has returned an error.
func (p *Pool) run(cancel <-chan struct{}, deadline time.Time, fn func()) (wait, ran time.Duration, err error) {
	select {
	case <-cancel:
		return 0, 0, ErrDeadline
	default:
	}
	var expire <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return 0, 0, ErrDeadline
		}
		tm := getTimer(d)
		defer putTimer(tm)
		expire = tm.C
	}
	if err := faultinject.Fire(sitePoolEnqueue); err != nil {
		return 0, 0, err
	}
	t := taskPool.Get().(*poolTask)
	t.fn, t.enqueued = fn, time.Now()
	p.queued.Add(1)
	select {
	case p.tasks <- t:
	default:
		p.queued.Add(-1)
		p.rejFull.Add(1)
		t.fn = nil
		taskPool.Put(t)
		return 0, 0, ErrQueueFull
	}
	select {
	case <-t.done:
		wait, ran, skipped, err := t.wait, t.ran, t.skipped, t.panicErr
		*t = poolTask{done: t.done}
		taskPool.Put(t)
		switch {
		case skipped:
			return 0, 0, ErrDeadline
		case err != nil:
			return 0, 0, err
		}
		return wait, ran, nil
	case <-cancel:
	case <-expire:
	}
	// Mark the task dead; if a worker picked it up in this instant the work
	// completes anyway and we still report the deadline — the client has
	// gone. The task is not recycled: the worker may still hold it.
	t.cancelled.Store(true)
	return 0, 0, ErrDeadline
}

// AwaitIdle blocks until the queue is empty and no task is running, or ctx
// expires. Stop submitting first (Server.BeginDrain refuses new requests at
// admission) so the queue can only shrink.
func (p *Pool) AwaitIdle(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if p.queued.Load() == 0 && p.inFlight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:       p.workers,
		QueueCapacity: cap(p.tasks),
		Queued:        p.queued.Load(),
		InFlight:      p.inFlight.Load(),
		Completed:     p.completed.Load(),
		RejectedFull:  p.rejFull.Load(),
		Expired:       p.expired.Load(),
	}
}
