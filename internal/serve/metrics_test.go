package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tcqr/internal/hazard"
)

// driveTraffic pushes one cold factorize, one cache-hit factorize, and one
// solve-by-key through the handler, returning the key. The cutoff of 8
// forces the recursion to split, so the off-diagonal update GEMMs run on
// the simulated engine and reach the GEMM observer.
func driveTraffic(t *testing.T, h http.Handler, m, n int) string {
	t.Helper()
	data := testMatrix(7, m, n, 1)
	cfg := map[string]any{"cutoff": 8}
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data), "config": cfg}, &fr); code != 200 {
		t.Fatalf("factorize = %d", code)
	}
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data), "config": cfg}, nil); code != 200 {
		t.Fatalf("repeat factorize failed")
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i + 1)
	}
	b := matVecData(m, n, data, x)
	var sr solveReply
	if code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": b}, &sr); code != 200 {
		t.Fatalf("solve = %d", code)
	}
	return fr.Key
}

func TestMetricsEndpointExposesTraffic(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	h := s.Handler()
	driveTraffic(t, h, 96, 32)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	text := rec.Body.String()

	// The serve, hazard, and engine families must all be present, and the
	// traffic-driven ones non-zero.
	for _, want := range []string{
		`tcqrd_requests_total{endpoint="factorize"} 2`,
		`tcqrd_requests_total{endpoint="solve"} 1`,
		`tcqrd_responses_total{status="200"} 3`,
		"tcqrd_cache_hits_total 2", // repeat factorize + solve-by-key Get
		"tcqrd_cache_misses_total 1",
		`tcqrd_factorize_panel_total{panel="caqr"} 1`,
		"# TYPE tcqrd_stage_duration_seconds histogram",
		"# TYPE tcqrd_hazards_total counter",
		"tcqrd_pool_completed_total",
		"tcqrd_uptime_seconds",
		"tcqrd_spill_written_bytes_total 0", // no -cache-dir: the spill families render zeros
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The factorize GEMMs must have reached the engine observer under the
	// default TensorCore engine.
	if !strings.Contains(text, `tcqrd_engine_gemm_calls_total{engine="tc"`) {
		t.Errorf("no tc engine GEMM calls recorded:\n%s", text)
	}
	for _, stage := range []string{"decode", "key", "queue", "factorize", "solve", "encode"} {
		if !strings.Contains(text, fmt.Sprintf(`tcqrd_stage_duration_seconds_count{stage=%q} `, stage)) {
			t.Errorf("stage %q missing from latency histograms", stage)
		}
	}
}

// TestStatzUnderLoad hammers solves from many goroutines while concurrently
// polling /statz and /metrics. Run under -race this is the proof that the
// stats views never interleave with writers (the PR's snapshotting fix).
func TestStatzUnderLoad(t *testing.T) {
	s := New(Options{Workers: 4})
	defer s.Close()
	h := s.Handler()
	m, n := 48, 6
	data := testMatrix(3, m, n, 1)
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize failed")
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	b := matVecData(m, n, data, x)

	var solvers, poller sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		solvers.Add(1)
		go func() {
			defer solvers.Done()
			for i := 0; i < 25; i++ {
				post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": b}, nil)
			}
		}()
	}
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var statz struct {
				Requests map[string]int64 `json:"requests"`
			}
			if code := get(t, h, "/statz", &statz); code != 200 {
				t.Errorf("/statz = %d under load", code)
				return
			}
			req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				t.Errorf("/metrics = %d under load", rec.Code)
				return
			}
		}
	}()
	solvers.Wait()
	close(stop)
	poller.Wait()

	var statz struct {
		Requests map[string]int64 `json:"requests"`
		Timing   map[string]struct {
			Count int64   `json:"count"`
			P95MS float64 `json:"p95_ms"`
		} `json:"timing"`
	}
	if code := get(t, h, "/statz", &statz); code != 200 {
		t.Fatalf("/statz = %d", code)
	}
	if statz.Requests["solve"] != 100 {
		t.Fatalf("requests[solve] = %d, want 100", statz.Requests["solve"])
	}
	if tm := statz.Timing["solve"]; tm.Count == 0 || tm.P95MS <= 0 {
		t.Fatalf("timing[solve] = %+v, want count > 0 and p95 > 0", tm)
	}
}

// TestHazardAndErrorCardinalityBounded sends 1k distinct bad requests and
// asserts that no stats label set grows with request distinctness: error
// codes, hazard kinds, and response statuses stay bounded vocabularies.
func TestHazardAndErrorCardinalityBounded(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	h := s.Handler()
	for i := 0; i < 1000; i++ {
		// Every request differs (unique bogus key, unique rhs length) so any
		// per-request detail leaking into a label would mint 1000 series.
		post(t, h, "/v1/solve", map[string]any{
			"key": fmt.Sprintf("m%016x-bogus", i),
			"b":   make([]float64, 1+i%7),
		}, nil)
	}
	var statz struct {
		Errors  map[string]int64 `json:"errors"`
		Hazards map[string]int64 `json:"hazards"`
	}
	if code := get(t, h, "/statz", &statz); code != 200 {
		t.Fatalf("/statz = %d", code)
	}
	if len(statz.Errors) > 8 {
		t.Fatalf("errors label set grew to %d entries: %v", len(statz.Errors), statz.Errors)
	}
	if statz.Errors["unknown_key"] != 1000 {
		t.Fatalf("errors[unknown_key] = %d, want 1000", statz.Errors["unknown_key"])
	}
	if len(statz.Hazards) > len(hazard.Kinds())+1 {
		t.Fatalf("hazards label set grew to %d entries: %v", len(statz.Hazards), statz.Hazards)
	}
}

func TestNormalizeHazardKindBoundsVocabulary(t *testing.T) {
	for _, k := range hazard.Kinds() {
		if got := normalizeHazardKind(k.String()); got != k.String() {
			t.Errorf("known kind %q normalized to %q", k.String(), got)
		}
	}
	for _, bogus := range []string{"", "Kind(99)", "attacker-controlled-detail"} {
		if got := normalizeHazardKind(bogus); got != "other" {
			t.Errorf("normalizeHazardKind(%q) = %q, want other", bogus, got)
		}
	}
}

func TestServerTimingHeaderContract(t *testing.T) {
	// Absent when no stage was charged.
	var none stageClock
	if got := none.header(); got != "" {
		t.Errorf("empty clock rendered %q, want empty", got)
	}

	// A stage charged twice is summed into one metric.
	var twice stageClock
	twice.add(stageQueue, 1*time.Millisecond)
	twice.add(stageQueue, 2*time.Millisecond)
	if sum := twice.header(); sum != "queue;dur=3.000" {
		t.Errorf("summed header = %q, want queue;dur=3.000", sum)
	}

	// Order is the stages' declaration order no matter the charge order, a
	// stage charged zero time is still reported, and the text is exactly the
	// "name;dur=ms" list clients and the benchmark parse.
	var all stageClock
	for _, st := range []stage{stageForward, stageEncode, stageKey, stageUpdate, stageSolve, stageQueue, stageDecode, stageFactorize} {
		all.add(st, time.Duration(st)*time.Millisecond)
	}
	want := "decode;dur=0.000, key;dur=1.000, queue;dur=2.000, factorize;dur=3.000, solve;dur=4.000, encode;dur=5.000, update;dur=6.000, forward;dur=7.000"
	if got := all.header(); got != want {
		t.Errorf("header = %q, want %q", got, want)
	}
	var part stageClock
	part.add(stageSolve, 912*time.Microsecond)
	part.add(stageQueue, 2301*time.Microsecond)
	if got := part.header(); got != "queue;dur=2.301, solve;dur=0.912" {
		t.Errorf("header = %q, want queue;dur=2.301, solve;dur=0.912", got)
	}

	// A request with no recorded stages must not carry the header at all.
	s := New(Options{Workers: 1})
	defer s.Close()
	req := httptest.NewRequest(http.MethodGet, "/v1/solve", nil) // 405 before any stage runs
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET solve = %d, want 405", rec.Code)
	}
	if st := rec.Header().Get("Server-Timing"); st != "" {
		t.Fatalf("405 response carries Server-Timing %q, want none", st)
	}
}
