package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tcqr"
	"tcqr/internal/wirefmt"
)

// Verified content addressing (cache.go, DESIGN.md §9): a content key is a
// name, the entry's matrix is the proof. A real pair of matrices with one
// Hash64 is not something a test can wait for, so these tests hand the cache
// the colliding name directly: GetOrFactor(CacheKey(a1), a2) is exactly what
// a collision looks like from inside.

func tightMatrix(seed uint64, m, n int) *tcqr.Matrix {
	return tcqr.FromColMajor(m, n, testMatrix(seed, m, n, 1))
}

func TestContentKeyCollisionIsAMiss(t *testing.T) {
	var cfg tcqr.Config
	c := NewFactorCache(16, stubBackend{})
	a1, a2 := tightMatrix(1, 8, 2), tightMatrix(2, 8, 2)
	key := CacheKey(a1, cfg)

	e1, src, err := c.GetOrFactor(key, a1, cfg)
	if err != nil || src != SourceMiss || e1.Key != key || e1.A != a1 {
		t.Fatalf("first matrix: entry %+v source %d err %v", e1, src, err)
	}
	e2, src, err := c.GetOrFactor(key, a2, cfg)
	if err != nil || src != SourceMiss {
		t.Fatalf("colliding matrix: source %d err %v, want a miss", src, err)
	}
	if e2.A != a2 || e2.Key == key || e2.Key != saltedKey(key, 1) || e2.F.R.Hash64() == e1.F.R.Hash64() {
		t.Fatalf("colliding matrix answered from %q holding %p; want its own entry under %q", e2.Key, e2.A, saltedKey(key, 1))
	}
	if st := c.Stats(); st.KeyCollisions != 1 || st.Misses != 2 || st.Hits != 0 || st.Entries != 2 {
		t.Fatalf("after one collision: %+v", st)
	}
	// Both stay addressable, each by its own matrix and by its own name; a
	// bitwise-equal clone is the same matrix.
	if e, src, _ := c.GetOrFactor(key, a1.Clone(), cfg); e != e1 || src != SourceHit {
		t.Fatalf("first matrix now resolves %q (source %d)", e.Key, src)
	}
	if e, src, _ := c.GetOrFactor(key, a2.Clone(), cfg); e != e2 || src != SourceHit {
		t.Fatalf("colliding matrix now resolves %q (source %d)", e.Key, src)
	}
	if _, e, _ := c.resolve(key, a2, nil); e != e2 {
		t.Fatalf("resolve for the colliding matrix = %v", e)
	}
	if e, ok := c.Get(e2.Key); !ok || e != e2 {
		t.Fatalf("Get(%q) = %v, %v", e2.Key, e, ok)
	}
	if _, e, _ := c.resolve(key, tightMatrix(3, 8, 2), nil); e != nil {
		t.Fatal("resolve answered a matrix nobody factored")
	}

	// The sign of a zero is part of the matrix: -0 and +0 are equal as numbers
	// and not as contents (and Hash64 tells them apart too).
	z1 := tightMatrix(4, 8, 2)
	z1.Data[3] = 0
	z2 := z1.Clone()
	z2.Data[3] = math.Copysign(0, -1)
	zkey := CacheKey(z1, cfg)
	if CacheKey(z2, cfg) == zkey {
		t.Fatal("-0 and +0 hash alike")
	}
	ez1, _, _ := c.GetOrFactor(zkey, z1, cfg)
	ez2, src, _ := c.GetOrFactor(zkey, z2, cfg)
	if ez2 == ez1 || src != SourceMiss || math.Signbit(ez2.A.Data[3]) == math.Signbit(ez1.A.Data[3]) {
		t.Fatalf("-0 matrix answered from the +0 entry (%q, source %d)", ez2.Key, src)
	}

	// Past the last salted name a matrix is factored and answered, not cached.
	before := c.Stats()
	for salt := 2; salt <= maxKeySalt; salt++ {
		if e, _, _ := c.GetOrFactor(key, tightMatrix(uint64(10+salt), 8, 2), cfg); e.Key != saltedKey(key, salt) {
			t.Fatalf("collider %d landed on %q", salt, e.Key)
		}
	}
	extra := tightMatrix(99, 8, 2)
	for i := 0; i < 2; i++ {
		e, src, err := c.GetOrFactor(key, extra, cfg)
		if err != nil || src != SourceMiss || e.Key != "" || e.A != extra {
			t.Fatalf("matrix past the bound: entry %+v source %d err %v; want an uncached factorization of it", e, src, err)
		}
	}
	after := c.Stats()
	if got, want := after.Entries-before.Entries, maxKeySalt-1; got != want {
		t.Fatalf("entries grew by %d, want %d: the uncached factorization must not be indexed", got, want)
	}
	if got, want := after.Misses-before.Misses, int64(maxKeySalt-1+2); got != want {
		t.Fatalf("misses grew by %d, want %d", got, want)
	}
}

// TestSaltedKeyForms: a salted name is a series base of its own, and every
// form of a key is owned where its content key is.
func TestSaltedKeyForms(t *testing.T) {
	key := CacheKey(tightMatrix(1, 4, 2), tcqr.Config{})
	if strings.ContainsAny(key, "~@") {
		t.Fatalf("CacheKey output %q contains a separator", key)
	}
	for _, tc := range []struct{ in, base, owner string }{
		{key, key, key},
		{key + "@3", key, key},
		{saltedKey(key, 2), key + "~2", key},
		{versionedKey(saltedKey(key, 2), 5), key + "~2", key},
	} {
		if got := baseKey(tc.in); got != tc.base {
			t.Errorf("baseKey(%q) = %q, want %q", tc.in, got, tc.base)
		}
		if got := ownerKey(tc.in); got != tc.owner {
			t.Errorf("ownerKey(%q) = %q, want %q", tc.in, got, tc.owner)
		}
	}
}

// gatedBackend holds the factorization of every matrix with held rows until
// gate closes, announcing each on started.
type gatedBackend struct {
	stubBackend
	held    int
	started chan struct{}
	gate    chan struct{}
}

func (g *gatedBackend) Factorize(a *tcqr.Matrix, cfg tcqr.Config) (*tcqr.Factorization, error) {
	if a.Rows == g.held {
		g.started <- struct{}{}
		<-g.gate
	}
	return g.stubBackend.Factorize(a, cfg)
}

// TestSingleflightFollowerVerifiesTheFlight: a request whose key names a
// factorization in flight joins it only when the flight is factoring the
// request's own matrix.
func TestSingleflightFollowerVerifiesTheFlight(t *testing.T) {
	var cfg tcqr.Config
	be := &gatedBackend{held: 12, started: make(chan struct{}, 1), gate: make(chan struct{})}
	c := NewFactorCache(16, be)
	a1, a2 := tightMatrix(1, 12, 2), tightMatrix(2, 8, 2)
	key := CacheKey(a1, cfg)

	type result struct {
		e   *Entry
		src Source
	}
	lead, follow := make(chan result, 1), make(chan result, 1)
	go func() {
		e, src, _ := c.GetOrFactor(key, a1, cfg)
		lead <- result{e, src}
	}()
	<-be.started

	// Same name, other matrix: not a follower. It factors on its own, under
	// the salted name, while the flight it collided with is still open.
	e2, src, err := c.GetOrFactor(key, a2, cfg)
	if err != nil || src != SourceMiss || e2.A != a2 || e2.Key != saltedKey(key, 1) {
		t.Fatalf("other matrix under an in-flight key: entry %+v source %d err %v", e2, src, err)
	}
	if st := c.Stats(); st.KeyCollisions != 1 || st.SingleflightShared != 0 {
		t.Fatalf("after the collision: %+v", st)
	}
	// Same name, same matrix: a follower.
	go func() {
		e, src, _ := c.GetOrFactor(key, a1.Clone(), cfg)
		follow <- result{e, src}
	}()
	waitFor(t, func() bool { return c.Stats().SingleflightShared == 1 }, func() string { return "the follower never joined the flight" })
	close(be.gate)
	l, f := <-lead, <-follow
	if l.src != SourceMiss || f.src != SourceShared || l.e != f.e || l.e.A != a1 || l.e.Key != key {
		t.Fatalf("leader %+v (source %d), follower %+v (source %d)", l.e, l.src, f.e, f.src)
	}
}

// TestContentKeyCollisionsConcurrent: several goroutines resolve one name for
// different matrices through a cache small enough to evict under them. Every
// answer must hold the caller's matrix, and the recency list must survive
// hits on entries evicted between their lookup and their promotion.
func TestContentKeyCollisionsConcurrent(t *testing.T) {
	var cfg tcqr.Config
	c := NewFactorCache(2, stubBackend{})
	mats := []*tcqr.Matrix{tightMatrix(1, 8, 2), tightMatrix(2, 8, 2), tightMatrix(3, 8, 2), tightMatrix(4, 6, 2)}
	key := CacheKey(mats[0], cfg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				a := mats[(g+i)%len(mats)]
				e, _, err := c.GetOrFactor(key, a.Clone(), cfg)
				if err != nil || !sameContent(e.A, a) {
					t.Errorf("goroutine %d step %d: entry %q err %v does not hold the caller's matrix", g, i, e.Key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := c.lru.head; e != nil; e = e.next {
		if c.entries[e.Key] != e {
			t.Fatalf("%q is listed but not indexed", e.Key)
		}
		n++
	}
	if n != len(c.entries) || n != c.count || n > 2 {
		t.Fatalf("%d listed, %d indexed, count %d, bound 2", n, len(c.entries), c.count)
	}
}

// solveSpy is the library backend, remembering which matrix each solve was
// refined against.
type solveSpy struct {
	LibraryBackend
	mu     sync.Mutex
	solved []*tcqr.Matrix
}

func (s *solveSpy) note(a *tcqr.Matrix) {
	s.mu.Lock()
	s.solved = append(s.solved, a)
	s.mu.Unlock()
}

func (s *solveSpy) SolveWithFactor(f *tcqr.Factorization, a *tcqr.Matrix, b []float64, opts tcqr.SolveOptions) (*tcqr.LeastSquaresResult, error) {
	s.note(a)
	return s.LibraryBackend.SolveWithFactor(f, a, b, opts)
}

// TestInlineSolveIsNeverAnsweredFromAnotherMatrix is the collision through
// the API: the cache holds another matrix under the key the request's matrix
// hashes to, and /v1/solve must still factor and refine against the matrix
// the request carried, in both codecs.
func TestInlineSolveIsNeverAnsweredFromAnotherMatrix(t *testing.T) {
	spy := &solveSpy{}
	s := New(Options{Workers: 2, Backend: spy})
	defer s.Close()
	h := s.Handler()
	m, n := 64, 8
	other, mine := tightMatrix(5, m, n), tightMatrix(6, m, n)
	cfg, err := WireConfig{}.config()
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey(mine, cfg)
	if _, _, err := s.cache.GetOrFactor(key, other, cfg); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for j := range x {
		x[j] = float64(j%5) - 2
	}
	b := matVecData(m, n, mine.Data, x)

	var sr solveReply
	if code, _ := post(t, h, "/v1/solve", map[string]any{"matrix": wireMat(m, n, mine.Data), "b": b}, &sr); code != 200 {
		t.Fatalf("inline solve: code=%d", code)
	}
	if sr.Key != saltedKey(key, 1) || sr.Cached || maxDiff(sr.X, x) > 1e-6 {
		t.Fatalf("inline solve under a taken key: key %q cached %v error %g; want %q, fresh, accurate",
			sr.Key, sr.Cached, maxDiff(sr.X, x), saltedKey(key, 1))
	}
	// Again over a frame: now a hit, on the salted name.
	rec := postFrame(t, h, "/v1/solve",
		frameBody(t, map[string]any{}, wirefmt.MatrixSection(m, n, mine.Data), wirefmt.VectorSection(b)), "")
	var meta solveMeta
	secs := decodeFrameResp(t, rec, &meta)
	if rec.Code != 200 || meta.Key != sr.Key || !meta.Cached || maxDiff(secs[1].Float64s(), x) > 1e-6 {
		t.Fatalf("repeat over a frame: code=%d meta %+v", rec.Code, meta)
	}
	// The salted name is an ordinary key, and /v1/factorize reports it too.
	var byKey solveReply
	if code, _ := post(t, h, "/v1/solve", map[string]any{"key": sr.Key, "b": b}, &byKey); code != 200 || maxDiff(byKey.X, x) > 1e-6 {
		t.Fatalf("solve by the salted key: code=%d reply %+v", code, byKey)
	}
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, mine.Data)}, &fr); code != 200 || fr.Key != sr.Key || !fr.Cached {
		t.Fatalf("factorize of the collided matrix: code=%d reply %+v", code, fr)
	}
	// The plain key still answers for the matrix that holds it.
	var held solveReply
	if code, _ := post(t, h, "/v1/solve", map[string]any{"key": key, "b": matVecData(m, n, other.Data, x)}, &held); code != 200 || maxDiff(held.X, x) > 1e-6 {
		t.Fatalf("solve by the plain key: code=%d reply %+v", code, held)
	}

	spy.mu.Lock()
	defer spy.mu.Unlock()
	if len(spy.solved) != 4 {
		t.Fatalf("%d solves reached the backend, want 4", len(spy.solved))
	}
	for i, a := range spy.solved[:3] {
		if !sameContent(a, mine) {
			t.Fatalf("solve %d was refined against a matrix the request did not carry", i)
		}
	}
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := "tcqrd_cache_key_collisions_total 3\n"; !strings.Contains(rec2.Body.String(), want) {
		t.Fatalf("/metrics lacks %q (one collision per content-keyed request above)", want)
	}
}

// TestDeclaredLengthOverCapAllocatesNothing: readBody sizes its
// buffer from Content-Length, so a length over the body cap must be refused
// on the declaration, before any buffer exists. (It used to allocate the
// declared 8 GiB and then answer 400 for the two bytes that arrived.)
func TestDeclaredLengthOverCapAllocatesNothing(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	h := s.Handler()
	for _, contentType := range []string{wirefmt.ContentType, "application/json"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader([]byte("{}")))
		req.Header.Set("Content-Type", contentType)
		req.ContentLength = 8 << 30
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		var env envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusRequestEntityTooLarge || env.Error.Code != "too_large" {
			t.Fatalf("%s: declared 8 GiB body answered %d %q, want 413 too_large", contentType, rec.Code, rec.Body.String())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: refusing a declared 8 GiB body allocated %d bytes", contentType, grew)
		}
	}
	// A body of unknown length is capped as it is read, from the pool's
	// default buffer up, and running past the cap is the same 413 as
	// declaring a length over it, in either codec.
	s2 := New(Options{Workers: 1, MaxBodyBytes: 1 << 10})
	defer s2.Close()
	jsonBody := []byte(`{"key":"k","b":[` + strings.Repeat("1,", 1<<12) + `1]}`)
	for _, tc := range []struct {
		contentType string
		body        []byte
	}{
		{wirefmt.ContentType, make([]byte, 1<<16)},
		{"application/json", jsonBody},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", struct{ *bytes.Reader }{bytes.NewReader(tc.body)})
		req.Header.Set("Content-Type", tc.contentType)
		if req.ContentLength != -1 {
			t.Fatalf("test plumbing: ContentLength = %d, want unknown", req.ContentLength)
		}
		rec := httptest.NewRecorder()
		s2.Handler().ServeHTTP(rec, req)
		var env envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusRequestEntityTooLarge || env.Error.Code != "too_large" {
			t.Fatalf("%s: oversized body of unknown length answered %d %q, want 413 too_large", tc.contentType, rec.Code, rec.Body.String())
		}
	}
}
