package serve

import (
	"context"
	"errors"
	"fmt"
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
	// ErrDraining: the server is shutting down and admits no new work.
	ErrDraining = errors.New("serve: draining")
	// ErrDeadline: the request's deadline expired before its work started
	// (work already running is never abandoned mid-GEMM).
	ErrDeadline = errors.New("serve: deadline exceeded before work started")
)

// PoolStats is a snapshot of the worker pool counters.
type PoolStats struct {
	Workers          int   `json:"workers"`
	QueueCapacity    int   `json:"queue_capacity"`
	Queued           int64 `json:"queued"`
	InFlight         int64 `json:"in_flight"`
	Completed        int64 `json:"completed"`
	RejectedFull     int64 `json:"rejected_queue_full"`
	RejectedDraining int64 `json:"rejected_draining"`
	Expired          int64 `json:"expired_in_queue"`
}

// Pool is a bounded worker pool with admission control: a fixed number of
// workers drain a fixed-depth queue, submissions past the depth are
// rejected immediately with ErrQueueFull, and tasks whose context expires
// while still queued are skipped (ErrDeadline) rather than run late. This
// is the only place compute concurrency is created, so GOMAXPROCS-heavy
// GEMM work cannot be oversubscribed by accepting unbounded requests.
type Pool struct {
	tasks    chan *poolTask
	workers  int
	draining atomic.Bool

	queued    atomic.Int64
	inFlight  atomic.Int64
	completed atomic.Int64
	rejFull   atomic.Int64
	rejDrain  atomic.Int64
	expired   atomic.Int64
}

type poolTask struct {
	fn        func()
	enqueued  time.Time
	wait      time.Duration // queue wait, written by the worker before fn
	cancelled atomic.Bool
	done      chan struct{} // closed after fn returns (or the task is skipped)
	skipped   bool
	panicErr  error // set by the worker when fn panicked; surfaced by Do
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
// restores the counters, closes t.done, and keeps the worker goroutine
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
		close(t.done)
	}()
	if err := faultinject.Fire(sitePoolDequeue); err != nil {
		t.panicErr = err
		return
	}
	if t.cancelled.Load() {
		t.skipped = true
		return
	}
	t.wait = time.Since(t.enqueued)
	t.fn()
}

// Do submits fn and blocks until it has run, the queue rejects it, or ctx
// expires while it is still queued. It returns the time fn spent waiting in
// the queue. If fn panics, the panic is recovered and returned as the error
// (the worker survives). After a queue-full or draining rejection fn is
// never run; after a ctx-expiry ErrDeadline, however, a worker that
// dequeued the task in the same instant may still run fn to completion —
// its result is discarded, so fn must not assume it never runs once Do has
// returned an error.
func (p *Pool) Do(ctx context.Context, fn func()) (time.Duration, error) {
	if p.draining.Load() {
		p.rejDrain.Add(1)
		return 0, ErrDraining
	}
	if err := ctx.Err(); err != nil {
		return 0, ErrDeadline
	}
	if err := faultinject.Fire(sitePoolEnqueue); err != nil {
		return 0, err
	}
	t := &poolTask{fn: fn, enqueued: time.Now(), done: make(chan struct{})}
	p.queued.Add(1)
	select {
	case p.tasks <- t:
	default:
		p.queued.Add(-1)
		p.rejFull.Add(1)
		return 0, ErrQueueFull
	}
	select {
	case <-t.done:
		if t.skipped {
			return 0, ErrDeadline
		}
		if t.panicErr != nil {
			return 0, t.panicErr
		}
		return t.wait, nil
	case <-ctx.Done():
		// Mark the task dead; if a worker picked it up in this instant the
		// work completes anyway and we still report the deadline — the
		// client has gone.
		t.cancelled.Store(true)
		return 0, ErrDeadline
	}
}

// BeginDrain stops admitting new work. Idempotent.
func (p *Pool) BeginDrain() { p.draining.Store(true) }

// AwaitIdle blocks until the queue is empty and no task is running, or ctx
// expires. Call BeginDrain first so the queue can only shrink.
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
		Workers:          p.workers,
		QueueCapacity:    cap(p.tasks),
		Queued:           p.queued.Load(),
		InFlight:         p.inFlight.Load(),
		Completed:        p.completed.Load(),
		RejectedFull:     p.rejFull.Load(),
		RejectedDraining: p.rejDrain.Load(),
		Expired:          p.expired.Load(),
	}
}
