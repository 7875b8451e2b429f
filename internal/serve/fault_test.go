package serve

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tcqr"
	"tcqr/internal/faultinject"
)

// arm installs a fault schedule for one test and disarms it on cleanup. Every
// schedule the serving tests arm must pass the daemon's startup check, or it
// could not be reproduced with tcqrd -fault-spec.
func arm(t *testing.T, spec string) {
	t.Helper()
	if err := faultinject.Arm(spec); err != nil {
		t.Fatalf("Arm(%q): %v", spec, err)
	}
	t.Cleanup(faultinject.Disarm)
	if err := CheckFaultSites(faultinject.Sites()); err != nil {
		t.Fatalf("Arm(%q): %v", spec, err)
	}
}

// --- satellite: the pool dequeue window ------------------------------------

// TestPoolDequeuePanicCannotStrandAwaitIdle drives a panic into the window
// between a worker dequeuing a task and running it (the serve.pool.dequeue
// failpoint sits exactly there). The submitter must get an error, the
// worker must survive, and AwaitIdle must still terminate — before the
// runOne restructure, an unwind in that window killed the worker with the
// queued counter already decremented and t.done never closed, stranding
// both run and AwaitIdle.
func TestPoolDequeuePanicCannotStrandAwaitIdle(t *testing.T) {
	p := NewPool(1, 8)
	arm(t, "seed=1;serve.pool.dequeue=panic@once=1")

	_, _, err := p.run(nil, time.Time{}, func() {})
	if err == nil || !strings.Contains(err.Error(), "panic in pool task") {
		t.Fatalf("run with injected dequeue panic: err=%v, want recovered panic error", err)
	}

	// The single worker must have survived to run this.
	if _, _, err := p.run(nil, time.Time{}, func() {}); err != nil {
		t.Fatalf("run after injected panic: %v (worker died?)", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := p.AwaitIdle(ctx); err != nil {
		t.Fatalf("AwaitIdle after injected dequeue panic: %v", err)
	}
	st := p.Stats()
	if st.Queued != 0 || st.InFlight != 0 || st.Completed != 2 {
		t.Fatalf("counters after dequeue panic: %+v, want queued=0 inflight=0 completed=2", st)
	}
}

func TestPoolDequeueErrorSurfacesToSubmitter(t *testing.T) {
	p := NewPool(1, 8)
	arm(t, "seed=1;serve.pool.dequeue=error@once=1")
	_, _, err := p.run(nil, time.Time{}, func() { t.Error("task fn ran despite injected dequeue error") })
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("run: err=%v, want injected error", err)
	}
	if st := p.Stats(); st.Queued != 0 || st.InFlight != 0 {
		t.Fatalf("counters: %+v, want idle", st)
	}
}

// --- the failure contract --------------------------------------------------

// TestFailedComputeIsOneAttemptOne500: a factorize whose compute fails is
// attempted once and answered with one 500 internal. The arithmetic is
// deterministic — a panic or error on a matrix recurs on the same matrix — so
// the server does not replay it: the failpoint fires exactly once, and the
// envelope carries no hazards (nothing numerical happened).
func TestFailedComputeIsOneAttemptOne500(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	h := s.Handler()
	arm(t, "seed=3;serve.cache.factorize=error")

	var env map[string]map[string]any
	code, _ := post(t, h, "/v1/factorize",
		map[string]any{"matrix": wireMat(32, 8, testMatrix(2, 32, 8, 1))}, &env)
	if code != 500 || env["error"]["code"] != "internal" {
		t.Fatalf("code=%d body=%v, want 500 internal", code, env)
	}
	if ev := faultinject.Events(); len(ev) != 1 || ev[0].Site != siteCacheFactorize {
		t.Fatalf("fault events %v, want exactly one %s firing", ev, siteCacheFactorize)
	}
	if hz, ok := env["error"]["hazards"]; ok {
		t.Fatalf("500 envelope carries hazards %v, want none", hz)
	}
}

// TestEncodeFaultIsInternalNotRetried: an injected encode fault surfaces as
// a plain 500 (the compute already succeeded; replaying it would double
// work) and is attributed to the internal error code.
func TestEncodeFaultIsInternalNotRetried(t *testing.T) {
	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 2, Backend: be})
	defer s.Close()
	h := s.Handler()
	arm(t, "seed=1;serve.wire.encode=error@once=1")

	var env envelope
	code, _ := post(t, h, "/v1/factorize",
		map[string]any{"matrix": wireMat(32, 8, testMatrix(3, 32, 8, 1))}, &env)
	if code != 500 || env.Error.Code != "internal" {
		t.Fatalf("code=%d error=%+v, want 500 internal", code, env.Error)
	}
	if got := be.factorize.Load(); got != 1 {
		t.Fatalf("backend factorized %d times, want 1 (encode faults must not replay compute)", got)
	}
}

// poisonBackend is the library, except that Factorize panics on every
// matrix with poisonRows rows and counts those calls.
type poisonBackend struct {
	LibraryBackend
	poisonRows int
	poisoned   atomic.Int64
}

func (b *poisonBackend) Factorize(a *tcqr.Matrix, cfg tcqr.Config) (*tcqr.Factorization, error) {
	if a.Rows == b.poisonRows {
		b.poisoned.Add(1)
		panic("poison matrix")
	}
	return b.LibraryBackend.Factorize(a, cfg)
}

// TestRepeatedFailuresDoNotShedOtherRequests: a 500 says nothing about the
// next request. One client sending one poison matrix over and over gets one
// 500 and one backend call per request, and every other request — a cold
// factorize, an update of a resident series, a low-rank — is served as if
// those failures never happened.
func TestRepeatedFailuresDoNotShedOtherRequests(t *testing.T) {
	be := &poisonBackend{poisonRows: 40}
	s := New(Options{Workers: 2, Backend: be})
	defer s.Close()
	h := s.Handler()

	const m, n = 48, 12
	warm := testMatrix(10, m, n, 1)
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, warm)}, &fr); code != 200 {
		t.Fatalf("warm factorize: code=%d", code)
	}

	poison := map[string]any{"matrix": wireMat(40, n, testMatrix(11, 40, n, 1))}
	for i := 1; i <= 6; i++ {
		var env envelope
		if code, _ := post(t, h, "/v1/factorize", poison, &env); code != 500 || env.Error.Code != "internal" {
			t.Fatalf("poison request %d: code=%d error=%+v, want 500 internal", i, code, env.Error)
		}
		if got := be.poisoned.Load(); got != int64(i) {
			t.Fatalf("after poison request %d: %d backend calls, want %d", i, got, i)
		}
	}

	var env envelope
	if code, _ := post(t, h, "/v1/factorize",
		map[string]any{"matrix": wireMat(m, n, testMatrix(12, m, n, 1))}, &env); code != 200 {
		t.Fatalf("cold factorize after the poison: code=%d error=%+v, want 200", code, env.Error)
	}
	var ur updateReply
	if code, _ := post(t, h, "/v1/update",
		map[string]any{"key": fr.Key, "append": wireMat(4, n, testMatrix(13, 4, n, 1))}, &ur); code != 200 || ur.Epoch != 1 {
		t.Fatalf("update after the poison: code=%d reply=%+v, want 200 at epoch 1", code, ur)
	}
	if code, _ := post(t, h, "/v1/lowrank",
		map[string]any{"matrix": wireMat(m, n, warm), "rank": 4}, nil); code != 200 {
		t.Fatalf("lowrank after the poison: code=%d, want 200", code)
	}
	var hz map[string]string
	if code := get(t, h, "/healthz", &hz); code != 200 || hz["status"] != "ok" {
		t.Fatalf("healthz after the poison: code=%d status=%q, want 200 ok", code, hz["status"])
	}
}

// --- determinism at the serving layer --------------------------------------

// TestServeFaultScheduleIsSeedDeterministic replays an identical
// single-client request sequence against two fresh servers armed with the
// same spec and asserts the injected-event logs are identical — the
// serving-layer half of the determinism contract (the faultinject package
// test covers the registry half).
func TestServeFaultScheduleIsSeedDeterministic(t *testing.T) {
	const spec = "seed=99;serve.wire.decode=error@every=4;serve.cache.factorize=error@p=0.4;serve.pool.enqueue=delay(100us)@p=0.3"
	run := func() []faultinject.Event {
		s := New(Options{Workers: 1})
		defer s.Close()
		h := s.Handler()
		arm(t, spec)
		for i := 0; i < 12; i++ {
			post(t, h, "/v1/factorize",
				map[string]any{"matrix": wireMat(24, 6, testMatrix(uint64(50+i%5), 24, 6, 1))}, nil)
		}
		return faultinject.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("schedule injected nothing; the spec should fire against this sequence")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestFaultSpecRejectedCleanly: a bad spec must not install anything.
func TestFaultSpecRejectedCleanly(t *testing.T) {
	if err := faultinject.Arm("serve.cache.factorize=explode"); err == nil {
		faultinject.Disarm()
		t.Fatal("bad action accepted")
	}
	if faultinject.Sites() != nil {
		t.Fatal("failed Arm left a schedule armed")
	}
}
