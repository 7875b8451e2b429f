package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// The request deadline is a time on the request's scope, and the pool waits
// on it with a timer recycled across requests; the tests below hold the
// recycling to the one-deadline contract: an expired wait answers 504 and
// its task is skipped, a recycled timer never fires into a later request,
// and a client that goes away releases its handler at once.

// TestDeadlineExpiresInQueueThenRecycledTimersStaySilent: a solve queued
// behind held workers whose deadline_ms passes answers 504 deadline, and the
// worker that later dequeues it counts it expired. Right after, 200
// back-to-back solves under a deadline all answer 200: each takes a timer
// the pool recycled, the expired one among them.
func TestDeadlineExpiresInQueueThenRecycledTimersStaySilent(t *testing.T) {
	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 1, Backend: be})
	defer s.Close()
	h := s.Handler()
	body := cachedSolveBody(t, h, 11)

	release := holdWorkers(t, s, be)
	expired := s.pool.Stats().Expired
	body["deadline_ms"] = 30
	var er envelope
	if code, _ := post(t, h, "/v1/solve", body, &er); code != 504 || er.Error.Code != "deadline" {
		release()
		t.Fatalf("queued solve past its deadline: code=%d error=%+v, want 504 deadline", code, er.Error)
	}
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.AwaitIdle(ctx); err != nil {
		t.Fatalf("AwaitIdle: %v (pool=%+v)", err, s.pool.Stats())
	}
	if got := s.pool.Stats().Expired - expired; got != 1 {
		t.Fatalf("pool counted %d expired tasks for one solve that expired in the queue, want 1", got)
	}

	body["deadline_ms"] = 2000
	for i := 0; i < 200; i++ {
		if code, _ := post(t, h, "/v1/solve", body, &er); code != 200 {
			t.Fatalf("solve %d after the expiry: code=%d error=%+v, want 200", i, code, er.Error)
		}
	}
}

// TestDeadlineClientCancelReleasesQueuedSolve: a client that goes away while
// its solve waits in the queue gets its handler back at once — long before
// the 30 s default deadline, with the workers still held — and the skipped
// task is counted expired when a worker reaches it.
func TestDeadlineClientCancelReleasesQueuedSolve(t *testing.T) {
	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 1, Backend: be})
	defer s.Close()
	h := s.Handler()
	body := cachedSolveBody(t, h, 12)
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}

	var once sync.Once
	hold := holdWorkers(t, s, be)
	release := func() { once.Do(hold) }
	defer release()
	expired := s.pool.Stats().Expired
	ctx, cancel := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(raw)).WithContext(ctx)
		h.ServeHTTP(rec, req)
	}()
	waitFor(t, func() bool { return s.pool.Stats().Queued == 1 },
		func() string { return fmt.Sprintf("the solve to queue: pool=%+v", s.pool.Stats()) })
	cancel()
	select {
	case <-served:
	case <-time.After(2 * time.Second):
		t.Fatalf("handler still waiting 2 s after its client went away (pool=%+v)", s.pool.Stats())
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("cancelled queued solve: code=%d body=%q, want 504", rec.Code, rec.Body.String())
	}
	release()
	idle, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := s.AwaitIdle(idle); err != nil {
		t.Fatalf("AwaitIdle: %v (pool=%+v)", err, s.pool.Stats())
	}
	if got := s.pool.Stats().Expired - expired; got != 1 {
		t.Fatalf("pool counted %d expired tasks for one cancelled solve, want 1", got)
	}
}

// TestPoolRecycledTimerNeverFiresIntoLaterWait: a deadline timer that fired
// with nobody reading it — its wait ended on the task's completion an
// instant before — goes back to the pool drained, so the next wait that
// takes it sees only its own deadline.
func TestPoolRecycledTimerNeverFiresIntoLaterWait(t *testing.T) {
	for i := 0; i < 10; i++ {
		tm := getTimer(time.Millisecond)
		time.Sleep(5 * time.Millisecond) // it fires; its value goes unread
		putTimer(tm)
		next := getTimer(time.Hour)
		select {
		case <-next.C:
			t.Fatalf("round %d: a recycled timer set for an hour fired at once", i)
		case <-time.After(5 * time.Millisecond):
		}
		putTimer(next)
	}
}
