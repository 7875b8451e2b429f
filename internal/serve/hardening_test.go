package serve

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcqr"
)

// --- overflow-safe matrix validation ---------------------------------------

// TestWireMatrixOverflowRejected sends dimensions whose product wraps the
// int multiplication (rows=cols=2^32 multiplies to 0, matching empty data).
// Before the division-based shape check this produced a bogus Matrix that
// panicked on first element access — killing the whole daemon via the
// /v1/lowrank pool worker.
func TestWireMatrixOverflowRejected(t *testing.T) {
	s := New(Options{Workers: 1})
	h := s.Handler()
	huge := int64(1) << 32
	mat := map[string]any{"rows": huge, "cols": huge, "data": []float64{}}
	cases := []struct {
		path string
		body map[string]any
	}{
		{"/v1/factorize", map[string]any{"matrix": mat}},
		{"/v1/solve", map[string]any{"matrix": mat, "b": []float64{1}}},
		{"/v1/lowrank", map[string]any{"matrix": mat, "rank": 1}},
	}
	for _, tc := range cases {
		var er envelope
		code, _ := post(t, h, tc.path, tc.body, &er)
		if code != 400 || er.Error.Code != "bad_input" {
			t.Fatalf("%s with 2^32 x 2^32 matrix: got %d %q, want 400 bad_input", tc.path, code, er.Error.Code)
		}
	}
	// The daemon must still be alive and serving after the attempts.
	m, n := 16, 4
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, testMatrix(90, m, n, 1))}, &fr); code != 200 {
		t.Fatalf("factorize after overflow probes: code=%d", code)
	}
}

func TestWireMatrixShapeMismatchRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    WireMatrix
	}{
		{"empty data", WireMatrix{Rows: 3, Cols: 5}},
		{"short data", WireMatrix{Rows: 3, Cols: 5, Data: make([]float64, 14)}},
		{"long data", WireMatrix{Rows: 3, Cols: 5, Data: make([]float64, 16)}},
		{"transposed count ok", WireMatrix{Rows: 3, Cols: 5, Data: make([]float64, 15)}},
	} {
		_, err := tc.w.matrix()
		if tc.name == "transposed count ok" {
			if err != nil {
				t.Fatalf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s: want bad_input, got nil", tc.name)
		}
	}
}

// --- pool panic containment ------------------------------------------------

func TestPoolSurvivesPanic(t *testing.T) {
	p := NewPool(1, 4)
	_, _, err := p.run(nil, time.Time{}, func() { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("run with panicking fn: err=%v, want panic error", err)
	}
	// The worker must have survived and keep serving.
	ran := false
	if _, _, err := p.run(nil, time.Time{}, func() { ran = true }); err != nil || !ran {
		t.Fatalf("run after panic: err=%v ran=%v", err, ran)
	}
	st := p.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("pool counters after panic: %+v", st)
	}
}

// TestServerSurvivesBackendPanic routes a panicking backend through every
// compute endpoint: each request must fail as 500 internal and the server
// (including singleflight followers on the same key) must stay responsive.
func TestServerSurvivesBackendPanic(t *testing.T) {
	s := New(Options{Workers: 2, Backend: panicBackend{}})
	h := s.Handler()
	m, n := 16, 4
	mat := wireMat(m, n, testMatrix(91, m, n, 1))

	var wg sync.WaitGroup
	codes := make([]int, 4)
	envs := make([]envelope, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = post(t, h, "/v1/factorize", map[string]any{"matrix": mat}, &envs[i])
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != 500 || envs[i].Error.Code != "internal" {
			t.Fatalf("factorize %d against panicking backend: got %d %q, want 500 internal", i, code, envs[i].Error.Code)
		}
	}

	var er envelope
	if code, _ := post(t, h, "/v1/lowrank", map[string]any{"matrix": mat, "rank": 2}, &er); code != 500 || er.Error.Code != "internal" {
		t.Fatalf("lowrank against panicking backend: got %d %q, want 500 internal", code, er.Error.Code)
	}
	if code := get(t, h, "/healthz", nil); code != 200 {
		t.Fatalf("healthz after backend panics: code=%d", code)
	}
}

// panicBackend panics on every compute call but the update pair, which no
// request reaches without a factor to update.
type panicBackend struct{ LibraryBackend }

func (panicBackend) Factorize(*tcqr.Matrix, tcqr.Config) (*tcqr.Factorization, error) {
	panic("factorize exploded")
}
func (panicBackend) SolveWithFactor(*tcqr.Factorization, *tcqr.Matrix, []float64, tcqr.SolveOptions) (*tcqr.LeastSquaresResult, error) {
	panic("solve exploded")
}
func (panicBackend) LowRank(*tcqr.Matrix, int, tcqr.Config) (*tcqr.LowRankApprox, error) {
	panic("lowrank exploded")
}

// --- drain / AwaitIdle ------------------------------------------------------

// TestAwaitIdleWaitsForDequeuedTask guards the worker's counter ordering:
// inFlight must rise before queued falls, so AwaitIdle can never report
// idle while a dequeued task is about to run (the graceful-drain "exited
// mid-solve" race).
func TestAwaitIdleWaitsForDequeuedTask(t *testing.T) {
	for round := 0; round < 50; round++ {
		const workers, n = 2, 6
		p := NewPool(workers, 16)
		release := make(chan struct{})
		var entered, finished atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, _ = p.run(nil, time.Time{}, func() {
					entered.Add(1)
					<-release
					time.Sleep(50 * time.Microsecond)
					finished.Add(1)
				})
			}()
		}
		// Both workers are parked on the gate and the rest sit queued: wait
		// for that stable state, then start AwaitIdle and release. The
		// workers' next dequeues now race AwaitIdle's polling — exactly the
		// window where the old queued-before-inFlight ordering reported idle
		// early.
		//
		// The state is read in an order that cannot tear. Stats loads Queued
		// and InFlight separately, so "InFlight == 2 && Queued == 4" can hold
		// across the two loads while only five goroutines have submitted (the
		// sixth then submits behind AwaitIdle's back). Once both workers are
		// inside fn, though, nothing dequeues until release, and Queued only
		// grows: reaching n-workers means every submission is in.
		for entered.Load() != workers {
			runtime.Gosched()
		}
		for p.Stats().Queued != n-workers {
			runtime.Gosched()
		}
		idle := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			idle <- p.AwaitIdle(ctx)
		}()
		close(release)
		if err := <-idle; err != nil {
			t.Fatalf("round %d: AwaitIdle: %v", round, err)
		}
		if got := finished.Load(); got != n {
			t.Fatalf("round %d: AwaitIdle returned with %d/%d tasks finished", round, got, n)
		}
		wg.Wait()
	}
}

// --- solve key+config conflict ---------------------------------------------

func TestSolveKeyWithConfigRejected(t *testing.T) {
	s := New(Options{Workers: 1})
	h := s.Handler()
	m, n := 32, 8
	mat := wireMat(m, n, testMatrix(92, m, n, 1))
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": mat}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	var er envelope
	code, _ := post(t, h, "/v1/solve",
		map[string]any{"key": fr.Key, "config": map[string]any{"engine": "fp32"}, "b": make([]float64, m)}, &er)
	if code != 400 || er.Error.Code != "bad_input" {
		t.Fatalf("key+config solve: got %d %q, want 400 bad_input", code, er.Error.Code)
	}
	// A bare key (zero config) still solves against the cached entry.
	var sr solveReply
	if code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": make([]float64, m)}, &sr); code != 200 {
		t.Fatalf("key-only solve after rejection: code=%d", code)
	}
}
