package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcqr"
	"tcqr/internal/matgen"
	"tcqr/internal/rgs"
	"tcqr/internal/wirefmt"
)

// --- test plumbing ---------------------------------------------------------

// testMatrix returns deterministic column-major data in [-0.5, 0.5) with the
// last column scaled by lastColScale. Distinct seeds give distinct matrices
// (and therefore distinct cache keys).
func testMatrix(seed uint64, m, n int, lastColScale float64) []float64 {
	s := seed*0x9E3779B97F4A7C15 + 1
	data := make([]float64, m*n)
	for i := range data {
		s = s*6364136223846793005 + 1442695040888963407
		data[i] = float64(s>>11)/float64(uint64(1)<<53) - 0.5
	}
	for i := (n - 1) * m; i < n*m; i++ {
		data[i] *= lastColScale
	}
	return data
}

func wireMat(m, n int, data []float64) map[string]any {
	return map[string]any{"rows": m, "cols": n, "data": data}
}

// matVecData computes A·x for column-major data.
func matVecData(m, n int, data, x []float64) []float64 {
	b := make([]float64, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			b[i] += data[j*m+i] * x[j]
		}
	}
	return b
}

// post drives one request through the handler in-process and decodes the
// response body into out (which may be nil).
func post(t *testing.T, h http.Handler, path string, body any, out any) (int, http.Header) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("undecodable %s response %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec.Code, rec.Header()
}

func get(t *testing.T, h http.Handler, path string, out any) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("undecodable %s response %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// errCode extracts error.code from an error envelope.
type envelope struct {
	Error struct {
		Code    string       `json:"code"`
		Message string       `json:"message"`
		Hazards []WireHazard `json:"hazards"`
	} `json:"error"`
}

type solveReply struct {
	X          []float64    `json:"x"`
	Iterations int          `json:"iterations"`
	Converged  bool         `json:"converged"`
	Optimality float64      `json:"optimality"`
	Key        string       `json:"key"`
	Cached     bool         `json:"cached"`
	Hazards    []WireHazard `json:"hazards"`
}

type factorizeReply struct {
	Key              string       `json:"key"`
	Rows             int          `json:"rows"`
	Cols             int          `json:"cols"`
	Cached           bool         `json:"cached"`
	Shared           bool         `json:"shared"`
	Reorthogonalized bool         `json:"reorthogonalized"`
	Hazards          []WireHazard `json:"hazards"`
}

// countingBackend wraps the real library and counts (and optionally gates)
// each Backend call.
type countingBackend struct {
	inner     Backend
	factorize atomic.Int64
	solve     atomic.Int64
	lowRank   atomic.Int64
	// gate, when non-nil, blocks Factorize until released (admission tests).
	gate chan struct{}
}

func (c *countingBackend) Factorize(a *tcqr.Matrix, cfg tcqr.Config) (*tcqr.Factorization, error) {
	c.factorize.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	return c.inner.Factorize(a, cfg)
}

func (c *countingBackend) SolveWithFactor(f *tcqr.Factorization, a *tcqr.Matrix, b []float64, opts tcqr.SolveOptions) (*tcqr.LeastSquaresResult, error) {
	c.solve.Add(1)
	return c.inner.SolveWithFactor(f, a, b, opts)
}

func (c *countingBackend) LowRank(a *tcqr.Matrix, rank int, cfg tcqr.Config) (*tcqr.LowRankApprox, error) {
	c.lowRank.Add(1)
	return c.inner.LowRank(a, rank, cfg)
}

func (c *countingBackend) UpdateAppendRows(r, v *tcqr.Matrix32) (*tcqr.Matrix32, error) {
	return c.inner.UpdateAppendRows(r, v)
}

func (c *countingBackend) UpdateRemoveRows(r *tcqr.Matrix32, a *tcqr.Matrix, k int) (*tcqr.Matrix32, error) {
	return c.inner.UpdateRemoveRows(r, a, k)
}

// waitFor polls cond every millisecond and fails the test with what() if it
// does not hold within ten seconds.
func waitFor(t *testing.T, cond func() bool, what func() string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what())
		}
		time.Sleep(time.Millisecond)
	}
}

// holdWorkers occupies every one of s's workers with a factorize blocked on
// a fresh be.gate and returns once all of them are running, so whatever is
// submitted next waits in the pool queue. release opens the gate and waits
// for the holders to finish.
func holdWorkers(t *testing.T, s *Server, be *countingBackend) (release func()) {
	t.Helper()
	be.gate = make(chan struct{})
	h := s.Handler()
	workers := s.pool.Stats().Workers
	before := be.factorize.Load()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code, _ := post(t, h, "/v1/factorize",
				map[string]any{"matrix": wireMat(16, 4, testMatrix(uint64(7000+i), 16, 4, 1))}, nil); code != 200 {
				t.Errorf("holder %d finished with %d, want 200", i, code)
			}
		}(i)
	}
	waitFor(t, func() bool { return be.factorize.Load() == before+int64(workers) },
		func() string { return fmt.Sprintf("%d workers to be held: pool=%+v", workers, s.pool.Stats()) })
	return func() {
		close(be.gate)
		wg.Wait()
	}
}

// cachedSolveBody factorizes a 64×16 test matrix through h and returns a
// solve-by-key request body against it.
func cachedSolveBody(t *testing.T, h http.Handler, seed uint64) map[string]any {
	t.Helper()
	m, n := 64, 16
	data := testMatrix(seed, m, n, 1)
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	return map[string]any{"key": fr.Key, "b": matVecData(m, n, data, make([]float64, n))}
}

// goSolves posts body to /v1/solve from n goroutines at once. wait blocks
// until every one has answered — anything but 200 fails the test — and
// returns the replies.
func goSolves(t *testing.T, h http.Handler, body any, n int) (wait func() []solveReply) {
	replies := make([]solveReply, n)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code, _ := post(t, h, "/v1/solve", body, &replies[i]); code != 200 {
				t.Errorf("solve %d: code=%d, want 200", i, code)
			}
		}(i)
	}
	return func() []solveReply {
		wg.Wait()
		return replies
	}
}

func maxDiff(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range got {
		if e := math.Abs(got[i] - want[i]); e > d {
			d = e
		}
	}
	return d
}

// --- cache + factorize -----------------------------------------------------

func TestFactorizeColdThenCached(t *testing.T) {
	s := New(Options{Workers: 2})
	h := s.Handler()
	m, n := 64, 16
	mat := wireMat(m, n, testMatrix(1, m, n, 1))

	var fr factorizeReply
	code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": mat}, &fr)
	if code != 200 || fr.Key == "" || fr.Cached || fr.Shared {
		t.Fatalf("cold factorize: code=%d reply=%+v", code, fr)
	}
	if fr.Rows != m || fr.Cols != n {
		t.Fatalf("echoed shape %dx%d, want %dx%d", fr.Rows, fr.Cols, m, n)
	}
	key := fr.Key

	code, _ = post(t, h, "/v1/factorize", map[string]any{"matrix": mat}, &fr)
	if code != 200 || !fr.Cached || fr.Key != key {
		t.Fatalf("repeat factorize: code=%d reply=%+v want cached with key %s", code, fr, key)
	}

	cs := s.Cache().Stats()
	if cs.Misses != 1 || cs.Hits < 1 || cs.Entries != 1 {
		t.Fatalf("cache stats after hit: %+v", cs)
	}

	// A different config must produce a different key (same matrix bits).
	code, _ = post(t, h, "/v1/factorize", map[string]any{"matrix": mat,
		"config": map[string]any{"engine": "bf16"}}, &fr)
	if code != 200 || fr.Cached || fr.Key == key {
		t.Fatalf("bf16 factorize should miss with a new key: code=%d reply=%+v", code, fr)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: 2})
	h := s.Handler()
	m, n := 48, 8
	keys := make([]string, 3)
	for i := 0; i < 3; i++ {
		var fr factorizeReply
		code, _ := post(t, h, "/v1/factorize",
			map[string]any{"matrix": wireMat(m, n, testMatrix(uint64(i+10), m, n, 1))}, &fr)
		if code != 200 {
			t.Fatalf("factorize %d: code=%d", i, code)
		}
		keys[i] = fr.Key
	}
	// Capacity 2: the first key must have been evicted.
	var er envelope
	code, _ := post(t, h, "/v1/solve", map[string]any{"key": keys[0], "b": make([]float64, m)}, &er)
	if code != 404 || er.Error.Code != "unknown_key" {
		t.Fatalf("evicted key should 404 unknown_key, got code=%d %+v", code, er.Error)
	}
	if ev := s.Cache().Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestSingleflightDedup(t *testing.T) {
	be := &countingBackend{inner: LibraryBackend{}, gate: make(chan struct{})}
	s := New(Options{Workers: 8, Backend: be})
	h := s.Handler()
	m, n := 64, 16
	mat := wireMat(m, n, testMatrix(2, m, n, 1))

	const clients = 8
	replies := make([]factorizeReply, clients)
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = post(t, h, "/v1/factorize", map[string]any{"matrix": mat}, &replies[i])
		}(i)
	}
	// Hold the gate until one leader has started factoring and the other
	// seven are parked on its flight — then the dedup assertion is exact.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cs := s.Cache().Stats()
		if cs.Misses == 1 && cs.SingleflightShared == clients-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for singleflight parking: %+v", cs)
		}
		time.Sleep(time.Millisecond)
	}
	close(be.gate)
	wg.Wait()

	if got := be.factorize.Load(); got != 1 {
		t.Fatalf("backend.Factorize called %d times for %d identical requests, want 1", got, clients)
	}
	leaders, shared := 0, 0
	for i := 0; i < clients; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: code=%d", i, codes[i])
		}
		if replies[i].Key != replies[0].Key {
			t.Fatalf("request %d got key %q, want %q", i, replies[i].Key, replies[0].Key)
		}
		switch {
		case !replies[i].Cached && !replies[i].Shared:
			leaders++
		case replies[i].Shared:
			shared++
		}
	}
	if leaders != 1 || shared != clients-1 {
		t.Fatalf("leaders=%d shared=%d, want 1 and %d", leaders, shared, clients-1)
	}
}

// --- solve -----------------------------------------------------------------

func TestSolveByKeyAccuracy(t *testing.T) {
	s := New(Options{Workers: 2})
	h := s.Handler()
	m, n := 96, 24
	data := testMatrix(3, m, n, 1)
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}

	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j%7) - 3
	}
	b := matVecData(m, n, data, xTrue)
	var sr solveReply
	code, hdr := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": b}, &sr)
	if code != 200 || !sr.Converged || !sr.Cached {
		t.Fatalf("solve: code=%d reply=%+v", code, sr)
	}
	if d := maxDiff(sr.X, xTrue); d > 1e-6 {
		t.Fatalf("solution error %g > 1e-6 (optimality %g)", d, sr.Optimality)
	}
	st := hdr.Get("Server-Timing")
	if !strings.Contains(st, "decode;dur=") || !strings.Contains(st, "queue;dur=") || !strings.Contains(st, "solve;dur=") || !strings.Contains(st, "encode;dur=") {
		t.Fatalf("Server-Timing %q missing decode/queue/solve/encode stages", st)
	}
	// A solve by key hashes nothing and compares nothing.
	if strings.Contains(st, "key;dur=") {
		t.Fatalf("Server-Timing %q charges a key stage to a solve by key", st)
	}
	// The stages must appear in canonical pipeline order.
	if di, qi, si := strings.Index(st, "decode;"), strings.Index(st, "queue;"), strings.Index(st, "solve;"); di > qi || qi > si {
		t.Fatalf("Server-Timing %q out of order", st)
	}
}

func TestSolveByMatrixFactorsInline(t *testing.T) {
	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 2, Backend: be})
	h := s.Handler()
	m, n := 64, 16
	data := testMatrix(4, m, n, 1)
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = 1 + float64(j)
	}
	req := map[string]any{"matrix": wireMat(m, n, data), "b": matVecData(m, n, data, xTrue)}

	var sr solveReply
	code, _ := post(t, h, "/v1/solve", req, &sr)
	if code != 200 || sr.Cached || sr.Key == "" {
		t.Fatalf("first solve-by-matrix: code=%d reply=%+v", code, sr)
	}
	if d := maxDiff(sr.X, xTrue); d > 1e-6 {
		t.Fatalf("solution error %g > 1e-6", d)
	}
	code, _ = post(t, h, "/v1/solve", req, &sr)
	if code != 200 || !sr.Cached {
		t.Fatalf("second solve-by-matrix should hit the cache: code=%d reply=%+v", code, sr)
	}
	if got := be.factorize.Load(); got != 1 {
		t.Fatalf("backend.Factorize called %d times, want 1 (second solve must reuse)", got)
	}
}

// TestSolveOnHazardOptionChangesNothing: options.on_hazard is accepted and
// inert. A solve's answer depends only on its factor, b, method, tol and
// max_iterations, so a solve with "on_hazard":"fallback" answers exactly as
// one without it, on an idle pool and queued behind held workers. The
// refinement used to re-solve with LSQR under "fallback". Any other value is
// still a 400.
func TestSolveOnHazardOptionChangesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const m, n = 256, 32
	a := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric)
	b := matgen.Normal(rng, m, 1).Col(0)
	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 2, Backend: be})
	defer s.Close()
	h := s.Handler()
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, a.Data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	bodies := []map[string]any{
		{"key": fr.Key, "b": b},
		{"key": fr.Key, "b": b, "options": map[string]any{"on_hazard": "fallback"}},
	}
	same := func(what string, got, want solveReply) {
		t.Helper()
		if !slices.EqualFunc(got.X, want.X, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Errorf("%s: x differs", what)
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged ||
			math.Float64bits(got.Optimality) != math.Float64bits(want.Optimality) {
			t.Errorf("%s: iterations/converged/optimality %d/%v/%g, want %d/%v/%g", what,
				got.Iterations, got.Converged, got.Optimality, want.Iterations, want.Converged, want.Optimality)
		}
		if !slices.Equal(got.Hazards, want.Hazards) {
			t.Errorf("%s: hazards %v, want %v", what, got.Hazards, want.Hazards)
		}
	}

	solo := make([]solveReply, len(bodies))
	for i, body := range bodies {
		if code, _ := post(t, h, "/v1/solve", body, &solo[i]); code != 200 {
			t.Fatalf("solo solve %d: code=%d", i, code)
		}
	}
	same("solo on_hazard=fallback", solo[1], solo[0])

	release := holdWorkers(t, s, be)
	got := make([]solveReply, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body map[string]any) {
			defer wg.Done()
			if code, _ := post(t, h, "/v1/solve", body, &got[i]); code != 200 {
				t.Errorf("queued solve %d: code=%d", i, code)
			}
		}(i, body)
	}
	waitFor(t, func() bool { return s.pool.Stats().Queued == int64(len(bodies)) },
		func() string { return fmt.Sprintf("%d solves to queue: pool=%+v", len(bodies), s.pool.Stats()) })
	release()
	wg.Wait()
	for i, r := range got {
		same(fmt.Sprintf("queued solve %d", i), r, solo[0])
	}

	var er envelope
	if code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": b,
		"options": map[string]any{"on_hazard": "retry"}}, &er); code != 400 || er.Error.Code != "bad_input" {
		t.Errorf("on_hazard=retry: %d %q, want 400 bad_input", code, er.Error.Code)
	}
}

// TestDrainCompletesQueuedSolve: a solve admitted before the drain is a pool
// task, so a drain that begins while it waits behind a busy worker needs no
// hook of its own — the worker runs it, it answers 200, and AwaitIdle waits
// it out.
func TestDrainCompletesQueuedSolve(t *testing.T) {
	const clients = 3
	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 1, Backend: be})
	h := s.Handler()
	body := cachedSolveBody(t, h, 9)

	release := holdWorkers(t, s, be)
	solves := goSolves(t, h, body, clients)
	waitFor(t, func() bool { return s.pool.Stats().Queued == clients },
		func() string { return fmt.Sprintf("%d solves to queue: pool=%+v", clients, s.pool.Stats()) })

	s.BeginDrain()
	if code, _ := post(t, h, "/v1/solve", body, nil); code != 503 {
		t.Fatalf("solve after BeginDrain: code=%d, want 503", code)
	}
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.AwaitIdle(ctx); err != nil {
		t.Fatalf("AwaitIdle with solves queued at drain: %v (pool=%+v)", err, s.pool.Stats())
	}
	if got := be.solve.Load(); got != clients {
		t.Fatalf("AwaitIdle returned after %d of %d queued solves ran", got, clients)
	}
	solves()
}

// TestSolveDeadlineExpiresInQueueNeverRuns: a solve whose deadline passes
// while it waits for a worker answers 504 deadline, and the worker that
// later dequeues it skips it — the refinement never runs for a client that
// has gone.
func TestSolveDeadlineExpiresInQueueNeverRuns(t *testing.T) {
	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 1, Backend: be})
	h := s.Handler()
	body := cachedSolveBody(t, h, 10)
	body["deadline_ms"] = 30

	release := holdWorkers(t, s, be)
	before := be.solve.Load()
	var er envelope
	if code, _ := post(t, h, "/v1/solve", body, &er); code != 504 || er.Error.Code != "deadline" {
		t.Fatalf("queued solve past its deadline: code=%d error=%+v, want 504 deadline", code, er.Error)
	}
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.AwaitIdle(ctx); err != nil {
		t.Fatalf("AwaitIdle: %v (pool=%+v)", err, s.pool.Stats())
	}
	if got := be.solve.Load(); got != before {
		t.Fatalf("backend.SolveWithFactor ran %d times for a solve that expired in the queue, want 0", got-before)
	}
}

// TestCoalescedSolveHonoursMethod: a response must not depend on what else
// was queued with it. The name dates from the request coalescer, whose batched
// path refined every column with CGLS whatever the request said. N concurrent
// "method":"cgls" solves queued behind held workers must each answer bit for
// bit as the same request served alone: a CGLS answer depends only on the
// factor, b, the method and the tolerances.
func TestCoalescedSolveHonoursMethod(t *testing.T) {
	const clients = 3
	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 2, Backend: be})
	defer s.Close()
	h := s.Handler()
	m, n := 96, 24
	data := testMatrix(6, m, n, 1)
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j+1) / 10
	}
	body := map[string]any{"key": fr.Key, "b": matVecData(m, n, data, xTrue),
		"options": map[string]any{"method": "cgls"}}

	// The solo answer, from a server with nothing else in flight.
	solo := New(Options{Workers: 2})
	defer solo.Close()
	if code, _ := post(t, solo.Handler(), "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, nil); code != 200 {
		t.Fatalf("solo factorize: code=%d", code)
	}
	var want solveReply
	if code, _ := post(t, solo.Handler(), "/v1/solve", body, &want); code != 200 {
		t.Fatalf("solo solve: code=%d", code)
	}
	if want.Iterations == 0 {
		t.Fatal("solo CGLS solve ran no refinement iteration")
	}

	release := holdWorkers(t, s, be)
	solves := goSolves(t, h, body, clients)
	waitFor(t, func() bool { return s.pool.Stats().Queued == clients },
		func() string { return fmt.Sprintf("%d solves to queue: pool=%+v", clients, s.pool.Stats()) })
	release()
	for i, r := range solves() {
		if r.Iterations != want.Iterations {
			t.Errorf("solve %d: queued CGLS solve ran %d refinement iterations, solo %d", i, r.Iterations, want.Iterations)
		}
		if len(r.X) != len(want.X) {
			t.Fatalf("solve %d: %d unknowns, want %d", i, len(r.X), len(want.X))
		}
		for j := range r.X {
			if math.Float64bits(r.X[j]) != math.Float64bits(want.X[j]) {
				t.Fatalf("solve %d: queued x[%d] = %v, solo %v", i, j, r.X[j], want.X[j])
			}
		}
		if math.Float64bits(r.Optimality) != math.Float64bits(want.Optimality) || r.Converged != want.Converged {
			t.Errorf("solve %d: optimality/converged %g/%v, solo %g/%v", i, r.Optimality, r.Converged, want.Optimality, want.Converged)
		}
	}
}

// TestCoalescedSolveCarriesOnlyItsOwnHazards: a request reports the hazards
// of its own refinement, not those of requests queued with it. The name dates
// from the request coalescer, under which a zero b batched with a diverging b
// carried the other column's divergence. Here a b whose CGLS diverges at an
// unreachable tolerance and a zero b, which converges at once and records
// nothing alone, queue together behind held workers. Every reply must equal
// the same request served alone — x, iterations, optimality and hazards — and
// tcqrd_hazards_total counts the one diverging request once.
func TestCoalescedSolveCarriesOnlyItsOwnHazards(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const m, n = 512, 64
	a := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric)
	opts := map[string]any{"tol": 1e-30}
	bs := [][]float64{matgen.Normal(rng, m, 1).Col(0), make([]float64, m)}
	factorize := func(h http.Handler) string {
		var fr factorizeReply
		if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, a.Data)}, &fr); code != 200 {
			t.Fatalf("factorize: code=%d", code)
		}
		return fr.Key
	}

	solo := New(Options{Workers: 2})
	defer solo.Close()
	key := factorize(solo.Handler())
	want := make([]solveReply, len(bs))
	for i, b := range bs {
		if code, _ := post(t, solo.Handler(), "/v1/solve", map[string]any{"key": key, "b": b, "options": opts}, &want[i]); code != 200 {
			t.Fatalf("solo solve %d: code=%d", i, code)
		}
	}
	if len(want[0].Hazards) == 0 || len(want[1].Hazards) != 0 {
		t.Fatalf("solo hazards %v and %v: want the first b to diverge and the zero b to record nothing", want[0].Hazards, want[1].Hazards)
	}

	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 2, Backend: be})
	defer s.Close()
	h := s.Handler()
	factorize(h)
	release := holdWorkers(t, s, be)
	got := make([]solveReply, len(bs))
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func(i int, b []float64) {
			defer wg.Done()
			if code, _ := post(t, h, "/v1/solve", map[string]any{"key": key, "b": b, "options": opts}, &got[i]); code != 200 {
				t.Errorf("queued solve %d: code=%d", i, code)
			}
		}(i, b)
	}
	waitFor(t, func() bool { return s.pool.Stats().Queued == int64(len(bs)) },
		func() string { return fmt.Sprintf("%d solves to queue: pool=%+v", len(bs), s.pool.Stats()) })
	release()
	wg.Wait()
	for i, r := range got {
		if !slices.Equal(r.Hazards, want[i].Hazards) {
			t.Errorf("solve %d: queued hazards %v, solo %v", i, r.Hazards, want[i].Hazards)
		}
		if r.Iterations != want[i].Iterations || math.Float64bits(r.Optimality) != math.Float64bits(want[i].Optimality) {
			t.Errorf("solve %d: queued iterations/optimality %d/%g, solo %d/%g", i, r.Iterations, r.Optimality, want[i].Iterations, want[i].Optimality)
		}
		if !slices.EqualFunc(r.X, want[i].X, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Errorf("solve %d: queued x differs from solo", i)
		}
	}
	if div := s.metrics.hazards.Snapshot()["divergence"]; div != 1 {
		t.Errorf("tcqrd_hazards_total{kind=divergence} = %d, want 1 (one diverging request)", div)
	}
}

// --- admission control -----------------------------------------------------

func TestQueueFullRejectsWith429(t *testing.T) {
	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 1, QueueDepth: 1, Backend: be})
	h := s.Handler()
	m, n := 48, 8

	// A cached key, and one solve served on the idle pool before it is
	// jammed.
	solve := cachedSolveBody(t, h, 19)
	if code, _ := post(t, h, "/v1/solve", solve, nil); code != 200 {
		t.Fatalf("solve on an idle pool: code=%d", code)
	}
	be.gate = make(chan struct{})

	// Request 1 occupies the only worker (its backend call blocks on the
	// gate); request 2 fills the depth-1 queue; request 3 must bounce. The
	// two fillers are sequenced — request 2 is only sent once the worker has
	// demonstrably dequeued request 1 — because until then request 1's own
	// task may still be sitting in the buffer.
	results := make(chan int, 2)
	go func() {
		code, _ := post(t, h, "/v1/factorize",
			map[string]any{"matrix": wireMat(m, n, testMatrix(20, m, n, 1))}, nil)
		results <- code
	}()
	deadline := time.Now().Add(10 * time.Second)
	for be.factorize.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never picked up request 1: pool=%+v", s.pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		code, _ := post(t, h, "/v1/factorize",
			map[string]any{"matrix": wireMat(m, n, testMatrix(21, m, n, 1))}, nil)
		results <- code
	}()
	for s.pool.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("request 2 never queued: pool=%+v", s.pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	var er envelope
	code, hdr := post(t, h, "/v1/factorize",
		map[string]any{"matrix": wireMat(m, n, testMatrix(22, m, n, 1))}, &er)
	if code != 429 || er.Error.Code != "overloaded" {
		t.Fatalf("overflow request: code=%d error=%+v, want 429 overloaded", code, er.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("429 response missing Retry-After")
	}

	// A solve bounces the same way.
	code, _ = post(t, h, "/v1/solve", solve, &er)
	if code != 429 || er.Error.Code != "overloaded" {
		t.Fatalf("overflow solve: code=%d error=%+v, want 429 overloaded", code, er.Error)
	}

	close(be.gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != 200 {
			t.Fatalf("parked request finished with %d, want 200", code)
		}
	}
	if rej := s.pool.Stats().RejectedFull; rej != 2 {
		t.Fatalf("pool rejected %d, want 2", rej)
	}
}

func TestDeadlineExpiresInQueueWith504(t *testing.T) {
	be := &countingBackend{inner: LibraryBackend{}, gate: make(chan struct{})}
	s := New(Options{Workers: 1, QueueDepth: 8, Backend: be})
	h := s.Handler()
	m, n := 48, 8

	blocked := make(chan int, 1)
	go func() {
		code, _ := post(t, h, "/v1/factorize",
			map[string]any{"matrix": wireMat(m, n, testMatrix(30, m, n, 1))}, nil)
		blocked <- code
	}()
	deadline := time.Now().Add(10 * time.Second)
	for be.factorize.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocking request")
		}
		time.Sleep(time.Millisecond)
	}

	var er envelope
	code, _ := post(t, h, "/v1/factorize",
		map[string]any{"matrix": wireMat(m, n, testMatrix(31, m, n, 1)), "deadline_ms": 30}, &er)
	if code != 504 || er.Error.Code != "deadline" {
		t.Fatalf("queued request past its deadline: code=%d error=%+v, want 504 deadline", code, er.Error)
	}

	close(be.gate)
	if code := <-blocked; code != 200 {
		t.Fatalf("blocking request finished with %d, want 200", code)
	}
}

func TestDrainingRejectsWith503(t *testing.T) {
	s := New(Options{Workers: 1})
	h := s.Handler()
	if code := get(t, h, "/healthz", nil); code != 200 {
		t.Fatalf("healthz before drain: %d", code)
	}
	s.BeginDrain()
	if code := get(t, h, "/healthz", nil); code != 503 {
		t.Fatalf("healthz while draining: %d, want 503", code)
	}
	var er envelope
	code, hdr := post(t, h, "/v1/factorize",
		map[string]any{"matrix": wireMat(8, 2, testMatrix(40, 8, 2, 1))}, &er)
	if code != 503 || er.Error.Code != "draining" {
		t.Fatalf("compute while draining: code=%d error=%+v, want 503 draining", code, er.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("503 response missing Retry-After")
	}
}

// --- hazards over the wire -------------------------------------------------

// overflowMatrix is a matrix whose last column blows past the binary16
// maximum once column scaling is disabled — the §3.5 hazard.
func overflowWire(m, n int) (map[string]any, map[string]any) {
	mat := wireMat(m, n, testMatrix(50, m, n, 3e5))
	cfg := map[string]any{"cutoff": 8, "disable_column_scaling": true}
	return mat, cfg
}

func TestHazardFailReturns422(t *testing.T) {
	s := New(Options{Workers: 1})
	h := s.Handler()
	mat, cfg := overflowWire(64, 16)
	var er envelope
	code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": mat, "config": cfg}, &er)
	if code != 422 || er.Error.Code != "numerical_hazard" {
		t.Fatalf("overflow under fail policy: code=%d error=%+v, want 422 numerical_hazard", code, er.Error)
	}
}

func TestHazardFallbackRecoversWithHazardsInBody(t *testing.T) {
	s := New(Options{Workers: 1})
	h := s.Handler()
	mat, cfg := overflowWire(64, 16)
	cfg["on_hazard"] = "fallback"
	var fr factorizeReply
	code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": mat, "config": cfg}, &fr)
	if code != 200 {
		t.Fatalf("overflow under fallback: code=%d", code)
	}
	if len(fr.Hazards) == 0 {
		t.Fatalf("fallback recovery reported no hazards")
	}
	recovered := false
	for _, hz := range fr.Hazards {
		if hz.Action != "" {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("no hazard carries a recovery action: %+v", fr.Hazards)
	}

	// The hazards must also flow into solves against this factorization, and
	// into the server-wide /statz counters.
	var sr solveReply
	code, _ = post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": make([]float64, 64)}, &sr)
	if code != 200 || len(sr.Hazards) == 0 {
		t.Fatalf("solve against recovered factorization: code=%d hazards=%d, want hazards to propagate", code, len(sr.Hazards))
	}
	var statz struct {
		Hazards map[string]int64 `json:"hazards"`
	}
	if code := get(t, h, "/statz", &statz); code != 200 || len(statz.Hazards) == 0 {
		t.Fatalf("statz hazard counters empty after recovery: code=%d %+v", code, statz.Hazards)
	}
}

// --- input validation and error mapping ------------------------------------

func TestErrorMapping(t *testing.T) {
	s := New(Options{Workers: 1, MaxElements: 1024})
	h := s.Handler()
	m, n := 16, 4
	good := wireMat(m, n, testMatrix(60, m, n, 1))
	nan := testMatrix(61, m, n, 1)
	nan[3] = math.NaN()

	cases := []struct {
		name     string
		path     string
		body     any
		wantCode int
		wantErr  string
	}{
		{"malformed json", "/v1/factorize", "{not json", 400, "bad_input"},
		{"unknown field", "/v1/factorize", map[string]any{"matrix": good, "bogus": 1}, 400, "bad_input"},
		{"missing matrix", "/v1/factorize", map[string]any{}, 400, "bad_input"},
		{"short data", "/v1/factorize", map[string]any{"matrix": wireMat(m, n, make([]float64, 3))}, 400, "bad_input"},
		{"wide matrix", "/v1/factorize", map[string]any{"matrix": wireMat(2, 4, make([]float64, 8))}, 400, "bad_input"},
		{"nan matrix", "/v1/factorize", map[string]any{"matrix": wireMat(m, n, nan)}, 400, "bad_input"},
		{"bad engine", "/v1/factorize", map[string]any{"matrix": good, "config": map[string]any{"engine": "fp8"}}, 400, "bad_input"},
		{"too large", "/v1/factorize", map[string]any{"matrix": wireMat(64, 32, make([]float64, 64*32))}, 413, "too_large"},
		{"solve no key no matrix", "/v1/solve", map[string]any{"b": []float64{1}}, 400, "bad_input"},
		{"solve unknown key", "/v1/solve", map[string]any{"key": "m0-x", "b": make([]float64, m)}, 404, "unknown_key"},
		{"solve bad method", "/v1/solve", map[string]any{"key": "k", "b": []float64{1}, "options": map[string]any{"method": "jacobi"}}, 400, "bad_input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body []byte
			if s, ok := tc.body.(string); ok {
				body = []byte(s)
			} else {
				body, _ = json.Marshal(tc.body)
			}
			req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var er envelope
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("non-envelope error body %q", rec.Body.String())
			}
			if rec.Code != tc.wantCode || er.Error.Code != tc.wantErr {
				t.Fatalf("got %d %q (%s), want %d %q", rec.Code, er.Error.Code, er.Error.Message, tc.wantCode, tc.wantErr)
			}
		})
	}

	// Solve with a mismatched right-hand side against a real key.
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": good}, &fr); code != 200 {
		t.Fatalf("factorize: %d", code)
	}
	var er envelope
	if code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": []float64{1, 2}}, &er); code != 400 || er.Error.Code != "bad_input" {
		t.Fatalf("short b: code=%d error=%+v", code, er.Error)
	}
	if code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "matrix": good, "b": make([]float64, m)}, &er); code != 400 {
		t.Fatalf("key+matrix together should 400, got %d", code)
	}

	// Wrong method on a compute endpoint.
	req := httptest.NewRequest(http.MethodGet, "/v1/solve", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 405 {
		t.Fatalf("GET /v1/solve: code=%d, want 405", rec.Code)
	}
}

// TestBeyondFloat32IsOneBadInput: a matrix whose float64 elements are
// finite but overflow float32 is refused the same way on every path that
// factors it — factorize, an inline solve and low-rank, as JSON and as a
// frame — with 400 bad_input and the message SolveLeastSquares gives:
// "tcqr: " and the element rgs.CheckInput names, the first non-finite
// float64 element before the first one the narrowing makes infinite. JSON
// cannot carry a NaN, so the second matrix goes by frame only.
func TestBeyondFloat32IsOneBadInput(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	h := s.Handler()
	const m, n = 16, 4
	huge := testMatrix(62, m, n, 1)
	huge[21] = 1e39
	nanLater := testMatrix(63, m, n, 1)
	nanLater[6] = -1e39
	nanLater[40] = math.NaN()
	b := make([]float64, m)
	for _, tc := range []struct {
		name string
		data []float64
		json bool
	}{{"1e39", huge, true}, {"-1e39 then NaN", nanLater, false}} {
		err := rgs.CheckInput(tcqr.FromColMajor(m, n, tc.data))
		if err == nil {
			t.Fatalf("%s: rgs.CheckInput accepts the matrix", tc.name)
		}
		want := "tcqr: " + err.Error()
		if _, serr := tcqr.SolveLeastSquares(tcqr.FromColMajor(m, n, tc.data), b, tcqr.SolveOptions{}); serr == nil || serr.Error() != want {
			t.Fatalf("%s: SolveLeastSquares says %v, want %q", tc.name, serr, want)
		}
		mat := wirefmt.MatrixSection(m, n, tc.data)
		for _, p := range []struct {
			path  string
			meta  map[string]any
			frame []byte
		}{
			{"/v1/factorize", map[string]any{"matrix": wireMat(m, n, tc.data)}, frameBody(t, map[string]any{}, mat)},
			{"/v1/solve", map[string]any{"matrix": wireMat(m, n, tc.data), "b": b}, frameBody(t, map[string]any{}, mat, wirefmt.VectorSection(b))},
			{"/v1/lowrank", map[string]any{"matrix": wireMat(m, n, tc.data), "rank": 2}, frameBody(t, map[string]any{"rank": 2}, mat)},
		} {
			recs := map[string]*httptest.ResponseRecorder{"frame": postFrame(t, h, p.path, p.frame, "")}
			if tc.json {
				body, jerr := json.Marshal(p.meta)
				if jerr != nil {
					t.Fatal(jerr)
				}
				recs["json"] = httptest.NewRecorder()
				h.ServeHTTP(recs["json"], httptest.NewRequest(http.MethodPost, p.path, bytes.NewReader(body)))
			}
			for enc, rec := range recs {
				var er envelope
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
					t.Fatalf("%s %s %s: non-envelope body %q", tc.name, p.path, enc, rec.Body.String())
				}
				if rec.Code != 400 || er.Error.Code != "bad_input" || er.Error.Message != want {
					t.Errorf("%s %s %s: %d %s %q, want 400 bad_input %q", tc.name, p.path, enc, rec.Code, er.Error.Code, er.Error.Message, want)
				}
			}
		}
	}
}

// --- lowrank + statz -------------------------------------------------------

func TestLowRankEndpoint(t *testing.T) {
	s := New(Options{Workers: 2})
	h := s.Handler()
	m, n := 48, 12
	var lr struct {
		U    WireMatrix `json:"u"`
		S    []float64  `json:"s"`
		V    WireMatrix `json:"v"`
		Rank int        `json:"rank"`
	}
	code, _ := post(t, h, "/v1/lowrank",
		map[string]any{"matrix": wireMat(m, n, testMatrix(70, m, n, 1)), "rank": 4}, &lr)
	if code != 200 || lr.Rank != 4 {
		t.Fatalf("lowrank: code=%d rank=%d", code, lr.Rank)
	}
	if lr.U.Rows != m || lr.U.Cols != 4 || lr.V.Rows != n || lr.V.Cols != 4 || len(lr.S) != 4 {
		t.Fatalf("lowrank shapes: U %dx%d V %dx%d S %d", lr.U.Rows, lr.U.Cols, lr.V.Rows, lr.V.Cols, len(lr.S))
	}
	for i := 1; i < len(lr.S); i++ {
		if lr.S[i] > lr.S[i-1] {
			t.Fatalf("singular values not sorted: %v", lr.S)
		}
	}
}

func TestStatzShape(t *testing.T) {
	s := New(Options{Workers: 2})
	h := s.Handler()
	m, n := 64, 16
	data := testMatrix(80, m, n, 1)
	var fr factorizeReply
	post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr)
	post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": make([]float64, m)}, nil)
	post(t, h, "/v1/solve", map[string]any{"key": "missing", "b": make([]float64, m)}, nil)

	var statz struct {
		UptimeSeconds float64          `json:"uptime_seconds"`
		Draining      bool             `json:"draining"`
		Requests      map[string]int64 `json:"requests"`
		Errors        map[string]int64 `json:"errors"`
		Cache         CacheStats       `json:"cache"`
		Pool          PoolStats        `json:"pool"`
		Timing        map[string]struct {
			Count   int64   `json:"count"`
			TotalMS float64 `json:"total_ms"`
			AvgMS   float64 `json:"avg_ms"`
			MaxMS   float64 `json:"max_ms"`
		} `json:"timing"`
		Hazards map[string]int64 `json:"hazards"`
	}
	if code := get(t, h, "/statz", &statz); code != 200 {
		t.Fatalf("statz: code=%d", code)
	}
	if statz.Requests["factorize"] != 1 || statz.Requests["solve"] != 2 {
		t.Fatalf("request counters %+v", statz.Requests)
	}
	if statz.Errors["unknown_key"] != 1 {
		t.Fatalf("error counters %+v", statz.Errors)
	}
	if statz.Cache.Misses != 1 || statz.Cache.Entries != 1 {
		t.Fatalf("cache stats %+v", statz.Cache)
	}
	if statz.Pool.Workers != 2 || statz.Pool.Completed < 1 {
		t.Fatalf("pool stats %+v", statz.Pool)
	}
	for _, stage := range []string{"decode", "key", "queue", "factorize", "solve", "encode"} {
		agg, ok := statz.Timing[stage]
		if !ok || agg.Count < 1 {
			t.Fatalf("timing stage %q missing or empty: %+v", stage, statz.Timing)
		}
		if agg.MaxMS < 0 || agg.TotalMS < 0 {
			t.Fatalf("timing stage %q has negative durations: %+v", stage, agg)
		}
	}
}
