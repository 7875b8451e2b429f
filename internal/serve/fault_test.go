package serve

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

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
// both Do and AwaitIdle.
func TestPoolDequeuePanicCannotStrandAwaitIdle(t *testing.T) {
	p := NewPool(1, 8)
	arm(t, "seed=1;serve.pool.dequeue=panic@once=1")

	_, err := p.Do(context.Background(), func() {})
	if err == nil || !strings.Contains(err.Error(), "panic in pool task") {
		t.Fatalf("Do with injected dequeue panic: err=%v, want recovered panic error", err)
	}

	// The single worker must have survived to run this.
	if _, err := p.Do(context.Background(), func() {}); err != nil {
		t.Fatalf("Do after injected panic: %v (worker died?)", err)
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
	_, err := p.Do(context.Background(), func() { t.Error("task fn ran despite injected dequeue error") })
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Do: err=%v, want injected error", err)
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
	s := New(Options{Workers: 2, DegradeThreshold: -1})
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

// --- degraded mode ---------------------------------------------------------

// TestDegradedModeServesCacheRejectsCold is the degraded-mode acceptance
// test: after the breaker trips, cache hits (solve by key, re-factorize of a
// resident matrix) still serve 200 while cold factorizations and lowrank
// get 503 + code "degraded" + a Retry-After covering the cooldown.
func TestDegradedModeServesCacheRejectsCold(t *testing.T) {
	s := New(Options{
		Workers:          2,
		DegradeThreshold: 2,
		DegradeCooldown:  time.Minute,
	})
	defer s.Close()
	h := s.Handler()

	// Warm the cache while healthy.
	warm := testMatrix(10, 48, 12, 1)
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(48, 12, warm)}, &fr); code != 200 {
		t.Fatalf("warm factorize: code=%d", code)
	}

	// Two injected internal failures trip the threshold-2 breaker.
	arm(t, "seed=5;serve.cache.factorize=error")
	for i := 0; i < 2; i++ {
		code, _ := post(t, h, "/v1/factorize",
			map[string]any{"matrix": wireMat(48, 12, testMatrix(uint64(20+i), 48, 12, 1))}, nil)
		if code != 500 {
			t.Fatalf("tripping request %d: code=%d, want 500", i, code)
		}
	}
	faultinject.Disarm()

	// Cold factorize: rejected with 503 degraded + Retry-After.
	var env envelope
	code, hdr := post(t, h, "/v1/factorize",
		map[string]any{"matrix": wireMat(48, 12, testMatrix(30, 48, 12, 1))}, &env)
	if code != 503 || env.Error.Code != "degraded" {
		t.Fatalf("cold factorize while degraded: code=%d error=%+v, want 503 degraded", code, env.Error)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After %q, want an integer in [1, 60]", hdr.Get("Retry-After"))
	}

	// Lowrank is uncached compute: also rejected.
	if code, _ := post(t, h, "/v1/lowrank",
		map[string]any{"matrix": wireMat(48, 12, warm), "rank": 4}, nil); code != 503 {
		t.Fatalf("lowrank while degraded: code=%d, want 503", code)
	}

	// Cache hits still serve: solve by key and re-factorize of the warm matrix.
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(i + 1)
	}
	var sr solveReply
	if code, _ := post(t, h, "/v1/solve",
		map[string]any{"key": fr.Key, "b": matVecData(48, 12, warm, x)}, &sr); code != 200 {
		t.Fatalf("solve by key while degraded: code=%d, want 200", code)
	}
	if d := maxDiff(sr.X, x); d > 1e-6 {
		t.Fatalf("degraded cache-hit solve wrong by %g", d)
	}
	var fr2 factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(48, 12, warm)}, &fr2); code != 200 || !fr2.Cached {
		t.Fatalf("re-factorize of resident matrix while degraded: code=%d cached=%v, want 200 cached", code, fr2.Cached)
	}

	// Liveness: /healthz stays 200 (the process serves cache traffic), but
	// reports the restriction; /statz mirrors it.
	var hz map[string]string
	if code := get(t, h, "/healthz", &hz); code != 200 || hz["status"] != "degraded" {
		t.Fatalf("healthz while degraded: code=%d status=%q, want 200 degraded", code, hz["status"])
	}
	var st statzResponse
	if code := get(t, h, "/statz", &st); code != 200 || !st.Degraded {
		t.Fatalf("statz while degraded: code=%d degraded=%v", code, st.Degraded)
	}
	var buf strings.Builder
	_ = s.Metrics().WriteText(&buf)
	txt := buf.String()
	if !strings.Contains(txt, "tcqrd_degraded 1") || !strings.Contains(txt, "tcqrd_degraded_entered_total 1") {
		t.Errorf("metrics missing degraded gauge/counter:\n%s", txt)
	}
}

// TestDegradedModeExpires: the cooldown ends on the clock and cold compute
// resumes.
func TestDegradedModeExpires(t *testing.T) {
	s := New(Options{Workers: 2, DegradeThreshold: 1, DegradeCooldown: 50 * time.Millisecond})
	defer s.Close()
	h := s.Handler()

	arm(t, "seed=5;serve.cache.factorize=error@once=1")
	if code, _ := post(t, h, "/v1/factorize",
		map[string]any{"matrix": wireMat(32, 8, testMatrix(40, 32, 8, 1))}, nil); code != 500 {
		t.Fatalf("tripping request: want 500")
	}
	if code, _ := post(t, h, "/v1/factorize",
		map[string]any{"matrix": wireMat(32, 8, testMatrix(41, 32, 8, 1))}, nil); code != 503 {
		t.Fatalf("while degraded: want 503")
	}
	time.Sleep(80 * time.Millisecond)
	if code, _ := post(t, h, "/v1/factorize",
		map[string]any{"matrix": wireMat(32, 8, testMatrix(41, 32, 8, 1))}, nil); code != 200 {
		t.Fatalf("after cooldown: want 200")
	}
	var hz map[string]string
	if code := get(t, h, "/healthz", &hz); code != 200 || hz["status"] != "ok" {
		t.Fatalf("healthz after cooldown: code=%d status=%q", code, hz["status"])
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
		s := New(Options{Workers: 1, DegradeThreshold: -1})
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
	if faultinject.Armed() {
		t.Fatal("failed Arm left a schedule armed")
	}
}
