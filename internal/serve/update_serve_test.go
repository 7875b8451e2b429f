package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tcqr"
	"tcqr/internal/wirefmt"
)

// --- wire helpers -----------------------------------------------------------

type updateReply struct {
	Key     string       `json:"key"`
	BaseKey string       `json:"base_key"`
	Epoch   uint64       `json:"epoch"`
	Rows    int          `json:"rows"`
	Cols    int          `json:"cols"`
	Hazards []WireHazard `json:"hazards"`
}

// stackData appends the rows of extra (column-major, same cols) under data.
func stackData(m, n int, data []float64, em int, extra []float64) []float64 {
	out := make([]float64, (m+em)*n)
	for j := 0; j < n; j++ {
		copy(out[j*(m+em):], data[j*m:(j+1)*m])
		copy(out[j*(m+em)+m:], extra[j*em:(j+1)*em])
	}
	return out
}

// epochOf parses the epoch out of a response key (bare base key = epoch 0).
func epochOf(t *testing.T, key string) uint64 {
	t.Helper()
	i := strings.LastIndexByte(key, '@')
	if i < 0 {
		return 0
	}
	e, err := strconv.ParseUint(key[i+1:], 10, 64)
	if err != nil {
		t.Fatalf("unparsable epoch in key %q: %v", key, err)
	}
	return e
}

// --- /v1/update endpoint ----------------------------------------------------

// TestUpdateAppendAndDowndateEndToEnd drives the full epoch lifecycle over
// the wire: factorize, append a row block (epoch 1), solve by bare key (the
// newest epoch answers and names itself), solve by pinned versioned key,
// downdate back to the original shape (epoch 2), and solve against the
// original matrix again.
func TestUpdateAppendAndDowndateEndToEnd(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	h := s.Handler()
	m, n, k := 96, 24, 8
	data := testMatrix(300, m, n, 1)
	block := testMatrix(301, k, n, 1)

	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	base := fr.Key

	var ur updateReply
	code, _ := post(t, h, "/v1/update",
		map[string]any{"key": base, "append": wireMat(k, n, block)}, &ur)
	if code != 200 || ur.Epoch != 1 || ur.Key != base+"@1" || ur.BaseKey != base ||
		ur.Rows != m+k || ur.Cols != n {
		t.Fatalf("append update: code=%d reply=%+v", code, ur)
	}

	// Bare-key solve resolves the newest epoch and reports its exact key.
	full := stackData(m, n, data, k, block)
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j%5) - 2
	}
	b := matVecData(m+k, n, full, xTrue)
	var sr solveReply
	code, _ = post(t, h, "/v1/solve", map[string]any{"key": base, "b": b}, &sr)
	if code != 200 || sr.Key != base+"@1" || !sr.Cached {
		t.Fatalf("bare-key solve after update: code=%d reply key=%q cached=%v", code, sr.Key, sr.Cached)
	}
	if d := maxDiff(sr.X, xTrue); d > 1e-6 {
		t.Fatalf("post-update solve error %g > 1e-6", d)
	}

	// A versioned key pins exactly that epoch.
	code, _ = post(t, h, "/v1/solve", map[string]any{"key": base + "@1", "b": b}, &sr)
	if code != 200 || sr.Key != base+"@1" {
		t.Fatalf("pinned-epoch solve: code=%d key=%q", code, sr.Key)
	}
	if d := maxDiff(sr.X, xTrue); d > 1e-6 {
		t.Fatalf("pinned-epoch solve error %g > 1e-6", d)
	}

	// Downdating the appended block restores the original matrix at epoch 2.
	code, _ = post(t, h, "/v1/update", map[string]any{"key": base, "remove_rows": k}, &ur)
	if code != 200 || ur.Epoch != 2 || ur.Rows != m {
		t.Fatalf("downdate: code=%d reply=%+v", code, ur)
	}
	b0 := matVecData(m, n, data, xTrue)
	code, _ = post(t, h, "/v1/solve", map[string]any{"key": base, "b": b0}, &sr)
	if code != 200 || sr.Key != base+"@2" {
		t.Fatalf("post-downdate solve: code=%d key=%q", code, sr.Key)
	}
	if d := maxDiff(sr.X, xTrue); d > 1e-4 {
		t.Fatalf("post-downdate solve error %g > 1e-4", d)
	}

	cs := s.Cache().Stats()
	if cs.Updates != 2 || cs.Retired != 2 || cs.Entries != 1 {
		t.Fatalf("cache stats after two updates: %+v", cs)
	}
}

func TestUpdateValidation(t *testing.T) {
	s := New(Options{Workers: 1, MaxElements: 4096})
	defer s.Close()
	h := s.Handler()
	m, n := 32, 8
	data := testMatrix(310, m, n, 1)
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	blk := wireMat(4, n, testMatrix(311, 4, n, 1))

	cases := []struct {
		name     string
		body     any
		wantCode int
		wantErr  string
	}{
		{"missing key", map[string]any{"append": blk}, 400, "bad_input"},
		{"neither op", map[string]any{"key": fr.Key}, 400, "bad_input"},
		{"both ops", map[string]any{"key": fr.Key, "append": blk, "remove_rows": 1}, 400, "bad_input"},
		{"negative remove", map[string]any{"key": fr.Key, "remove_rows": -2}, 400, "bad_input"},
		{"unknown key", map[string]any{"key": "m0000000000000000-x", "remove_rows": 1}, 404, "unknown_key"},
		{"cols mismatch", map[string]any{"key": fr.Key,
			"append": wireMat(4, n-1, testMatrix(312, 4, n-1, 1))}, 400, "bad_input"},
		{"grows past cap", map[string]any{"key": fr.Key,
			"append": wireMat(512, n, testMatrix(313, 512, n, 1))}, 413, "too_large"},
		// A downdate below the column count is refused before any compute
		// as bad_input, and the epoch must not advance.
		{"removes too many rows", map[string]any{"key": fr.Key, "remove_rows": m - n + 1}, 400, "bad_input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var er envelope
			code, _ := post(t, h, "/v1/update", tc.body, &er)
			if code != tc.wantCode || er.Error.Code != tc.wantErr {
				t.Fatalf("code=%d error=%+v, want %d %q", code, er.Error, tc.wantCode, tc.wantErr)
			}
		})
	}
	if cs := s.Cache().Stats(); cs.Updates != 0 {
		t.Fatalf("failed updates advanced the epoch: %+v", cs)
	}
	// The series lock must have been released by every failure path.
	var ur updateReply
	if code, _ := post(t, h, "/v1/update", map[string]any{"key": fr.Key, "remove_rows": 2}, &ur); code != 200 || ur.Epoch != 1 {
		t.Fatalf("valid update after failures: code=%d reply=%+v", code, ur)
	}
}

// TestUpdateApplyFaultLeavesEpochPublished arms the serve.update.apply
// failpoint: the update fails after the epoch was pinned, and the recovery
// path must leave the current epoch published, the series unlocked, and the
// failure counted.
func TestUpdateApplyFaultLeavesEpochPublished(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	h := s.Handler()
	m, n := 48, 12
	data := testMatrix(320, m, n, 1)
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}

	arm(t, "seed=9;serve.update.apply=error@once=1")
	var er envelope
	code, _ := post(t, h, "/v1/update", map[string]any{"key": fr.Key, "remove_rows": 4}, &er)
	if code != 500 || er.Error.Code != "internal" {
		t.Fatalf("faulted update: code=%d error=%+v, want 500 internal", code, er.Error)
	}

	// Epoch 0 still serves, at its original shape.
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j + 1)
	}
	var sr solveReply
	code, _ = post(t, h, "/v1/solve",
		map[string]any{"key": fr.Key, "b": matVecData(m, n, data, xTrue)}, &sr)
	if code != 200 || sr.Key != fr.Key {
		t.Fatalf("solve after aborted update: code=%d key=%q, want epoch 0 key %q", code, sr.Key, fr.Key)
	}
	if d := maxDiff(sr.X, xTrue); d > 1e-6 {
		t.Fatalf("solve after aborted update wrong by %g", d)
	}

	// The series must not be left latched: the next update goes through.
	var ur updateReply
	if code, _ := post(t, h, "/v1/update", map[string]any{"key": fr.Key, "remove_rows": 4}, &ur); code != 200 || ur.Epoch != 1 {
		t.Fatalf("update after aborted update: code=%d reply=%+v", code, ur)
	}

	var buf strings.Builder
	_ = s.Metrics().WriteText(&buf)
	if !strings.Contains(buf.String(), "tcqrd_update_failed_total 1") {
		t.Errorf("metrics missing the failed-update counter")
	}
}

// --- cache: byte budget, exact LRU, entry lifetime ---------------------------

// cacheEntryFor factors one matrix through the cache, returning its key.
func cacheEntryFor(t *testing.T, c *FactorCache, seed uint64, m, n int) string {
	t.Helper()
	a := tcqr.FromColMajor(m, n, testMatrix(seed, m, n, 1))
	key := CacheKey(a, tcqr.Config{})
	if _, _, err := c.GetOrFactor(key, a, tcqr.Config{}); err != nil {
		t.Fatalf("GetOrFactor(%dx%d): %v", m, n, err)
	}
	return key
}

// TestCacheByteBudgetEvictsUntilUnder is the regression test for the byte
// budget: with entries of wildly different sizes, inserting a large entry
// must evict as many small LRU victims as it takes to fit the budget — not
// exactly one — and a single entry bigger than the whole budget stays
// resident rather than caching nothing.
func TestCacheByteBudgetEvictsUntilUnder(t *testing.T) {
	c := NewFactorCache(100, LibraryBackend{})

	// Measure the two entry sizes empirically.
	smallKey := cacheEntryFor(t, c, 1, 16, 4)
	small := c.Stats().Bytes
	bigKey := cacheEntryFor(t, c, 2, 128, 16)
	big := c.Stats().Bytes - small
	if big < 8*small {
		t.Fatalf("sizes not wildly different: small=%d big=%d", small, big)
	}
	c.Reset()

	budget := big + 4*small
	c.SetByteBudget(budget)
	for i := 0; i < 10; i++ {
		cacheEntryFor(t, c, uint64(10+i), 16, 4)
	}
	if cs := c.Stats(); cs.Entries != 10 || cs.Bytes > budget {
		t.Fatalf("ten small entries should fit: %+v (budget %d)", cs, budget)
	}
	// The big insert must evict six smalls in one go to get under budget.
	bigKey = cacheEntryFor(t, c, 2, 128, 16)
	cs := c.Stats()
	if cs.Bytes > budget {
		t.Fatalf("bytes %d over budget %d after big insert: %+v", cs.Bytes, budget, cs)
	}
	if cs.Entries != 5 || cs.Evictions != 6 {
		t.Fatalf("want 6 evictions leaving big+4 small, got %+v", cs)
	}
	if _, ok := c.Get(bigKey); !ok {
		t.Fatalf("the just-inserted big entry was evicted")
	}
	if _, ok := c.Get(smallKey); ok {
		t.Fatalf("oldest small entry survived the budget")
	}

	// A single entry larger than the whole budget stays resident.
	c.Reset()
	c.SetByteBudget(small)
	cacheEntryFor(t, c, 3, 128, 16)
	if cs := c.Stats(); cs.Entries != 1 {
		t.Fatalf("over-budget sole entry must stay resident: %+v", cs)
	}
}

// TestCacheExactLRUOrder pins exact-LRU eviction order: a Get promotes, and
// the victim is always the least recently *used* entry, not the least
// recently inserted one.
func TestCacheExactLRUOrder(t *testing.T) {
	c := NewFactorCache(3, LibraryBackend{})
	keyA := cacheEntryFor(t, c, 21, 32, 8)
	keyB := cacheEntryFor(t, c, 22, 32, 8)
	keyC := cacheEntryFor(t, c, 23, 32, 8)

	if _, ok := c.Get(keyA); !ok {
		t.Fatalf("A missing before eviction")
	}
	keyD := cacheEntryFor(t, c, 24, 32, 8) // LRU order is now B < C < A < D

	if _, ok := c.Get(keyB); ok {
		t.Fatalf("B survived; exact LRU must evict the least recently used entry")
	}
	for _, k := range []string{keyA, keyC, keyD} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %s wrongly evicted", k)
		}
	}
	if cs := c.Stats(); cs.Evictions != 1 {
		t.Fatalf("evictions = %d, want exactly 1", cs.Evictions)
	}
}

// TestEvictedEntryStaysReadableUntilReleased: an entry is immutable once
// published. Whichever way it leaves the index — eviction, supersession by a
// newer epoch, Reset — whoever holds the pointer keeps reading the same bits
// and keeps solving against them; nothing is owed to the cache for that.
func TestEvictedEntryStaysReadableUntilReleased(t *testing.T) {
	const m, n = 48, 8
	be := LibraryBackend{}
	leave := map[string]func(t *testing.T, c *FactorCache, key string){
		"eviction": func(t *testing.T, c *FactorCache, key string) {
			cacheEntryFor(t, c, 32, m, n)
			if cs := c.Stats(); cs.Evictions != 1 {
				t.Fatalf("stats after the evicting insert: %+v", cs)
			}
		},
		"supersession": func(t *testing.T, c *FactorCache, key string) {
			old, err := c.BeginUpdate(key)
			if err != nil {
				t.Fatal(err)
			}
			r, err := be.UpdateRemoveRows(old.F.R, old.A, 4)
			if err != nil {
				t.Fatal(err)
			}
			c.PublishUpdate(old, dropRows64(old.A, 4), &tcqr.Factorization{R: r})
			if cs := c.Stats(); cs.Retired != 1 {
				t.Fatalf("stats after the superseding update: %+v", cs)
			}
		},
		"Reset": func(t *testing.T, c *FactorCache, key string) { c.Reset() },
	}
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j) - 3
	}
	for name, fn := range leave {
		t.Run(name, func(t *testing.T) {
			c := NewFactorCache(1, be)
			key := cacheEntryFor(t, c, 31, m, n)
			held, ok := c.Get(key)
			if !ok {
				t.Fatalf("A missing")
			}
			bits := entryBits(held)
			b := matVecData(m, n, testMatrix(31, m, n, 1), xTrue)
			before, err := be.SolveWithFactor(held.F, held.A, b, tcqr.SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}

			fn(t, c, key)

			if c.Peek(key, true) {
				t.Fatalf("the entry is still indexed under %s; the test exercised nothing", key)
			}
			if got := entryBits(held); got != bits {
				t.Fatalf("held entry changed after leaving the index: bits %x, were %x", got, bits)
			}
			after, err := be.SolveWithFactor(held.F, held.A, b, tcqr.SolveOptions{})
			if err != nil {
				t.Fatalf("solve against the held entry: %v", err)
			}
			if d := maxDiff(after.X, before.X); d != 0 {
				t.Fatalf("held entry solves differently after leaving the index (by %g)", d)
			}
			if d := maxDiff(after.X, xTrue); d > 1e-6 {
				t.Fatalf("held entry solves wrong by %g", d)
			}
		})
	}
}

// TestConcurrentSolveUpdateEvictRefcounts churns solves, updates, and
// cache-evicting factorizations against a two-entry cache under the race
// detector. The invariants are structural: every response is a legal status,
// nothing hangs, and when the dust settles the cache's books balance — the
// index holds what the counters say entered and has not yet left.
func TestConcurrentSolveUpdateEvictRefcounts(t *testing.T) {
	s := New(Options{Workers: 4, CacheEntries: 2})
	defer s.Close()
	h := s.Handler()
	m, n, k := 48, 8, 6
	data := testMatrix(400, m, n, 1)
	block := testMatrix(401, k, n, 1)

	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	base := fr.Key
	b0 := matVecData(m, n, data, make([]float64, n))

	iters := 40
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	legal := func(who string, code int) {
		if !legalChaosStatus[code] {
			t.Errorf("%s: illegal status %d", who, code)
		}
	}
	// Solvers: bare-key solves race the epoch flips; shape mismatches (400)
	// and evictions (404) are legal outcomes, hangs and crashes are not.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				code, _ := post(t, h, "/v1/solve", map[string]any{"key": base, "b": b0}, nil)
				legal("solver", code)
			}
		}(g)
	}
	// The update client: append-then-remove pairs keep the series churning through
	// epochs; 404 when the evictor won the race for the series entry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			var body map[string]any
			if i%2 == 0 {
				body = map[string]any{"key": base, "append": wireMat(k, n, block)}
			} else {
				body = map[string]any{"key": base, "remove_rows": k}
			}
			code, _ := post(t, h, "/v1/update", body, nil)
			legal("updater", code)
		}
	}()
	// Evictor: distinct factorizations churn the two-slot LRU, evicting the
	// series entry out from under solves and updates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			code, _ := post(t, h, "/v1/factorize",
				map[string]any{"matrix": wireMat(16, 4, testMatrix(uint64(500+i%6), 16, 4, 1))}, nil)
			legal("evictor", code)
		}
	}()
	wg.Wait()

	// Every entry came in through a miss or an update and went out through
	// an eviction or a retirement; the bound holds now that no update is in
	// flight to run it over.
	cs := s.Cache().Stats()
	if in, out := cs.Misses+cs.Updates, cs.Evictions+cs.Retired; int64(cs.Entries) != in-out {
		t.Fatalf("cache books do not balance: %d entries, %d in, %d out: %+v", cs.Entries, in, out, cs)
	}
	if cs.Entries < 1 || cs.Entries > 2 {
		t.Fatalf("cache holds %d entries, bound is 2: %+v", cs.Entries, cs)
	}
}

// TestEpochConsistencyUnderConcurrentUpdates is the epoch-versioning
// acceptance test: while an updater alternates append/downdate epochs,
// concurrent bare-key solves must each be answered by exactly one published
// epoch — the response's key names it, the row shape matches it, and the
// solution is that epoch's solution. A torn read (factors from one epoch, A
// from another) would fail the accuracy check. Run under -race.
func TestEpochConsistencyUnderConcurrentUpdates(t *testing.T) {
	s := New(Options{Workers: 4})
	defer s.Close()
	h := s.Handler()
	m, n, k := 48, 8, 6
	data := testMatrix(600, m, n, 1)
	block := testMatrix(601, k, n, 1)
	full := stackData(m, n, data, k, block)

	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	base := fr.Key

	// Even epochs hold the m-row matrix, odd epochs the (m+k)-row stack: the
	// updater appends the SAME block every odd epoch and removes it every
	// even one, so each parity has one well-defined ground truth.
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j%3) + 1
	}
	bEven := matVecData(m, n, data, xTrue)
	bOdd := matVecData(m+k, n, full, xTrue)

	epochs := 20
	if testing.Short() {
		epochs = 6
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := 1; e <= epochs; e++ {
			var body map[string]any
			if e%2 == 1 {
				body = map[string]any{"key": base, "append": wireMat(k, n, block)}
			} else {
				body = map[string]any{"key": base, "remove_rows": k}
			}
			var ur updateReply
			code, _ := post(t, h, "/v1/update", body, &ur)
			if code != 200 || ur.Epoch != uint64(e) {
				t.Errorf("update to epoch %d: code=%d reply=%+v", e, code, ur)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				b, wantParity := bEven, uint64(0)
				if rng.Intn(2) == 1 {
					b, wantParity = bOdd, 1
				}
				var sr solveReply
				code, _ := post(t, h, "/v1/solve", map[string]any{"key": base, "b": b}, &sr)
				switch code {
				case 200:
					e := epochOf(t, sr.Key)
					if e%2 != wantParity {
						t.Errorf("solve with %d-row b answered by epoch %d (key %q): shape and epoch disagree",
							len(b), e, sr.Key)
						return
					}
					if d := maxDiff(sr.X, xTrue); d > 1e-4 {
						t.Errorf("epoch %d solve wrong by %g: response mixes epochs", e, d)
						return
					}
				case 400:
					// The epoch flipped between choosing b and resolving the
					// entry: the request was consistently rejected, not
					// answered with mismatched state.
				default:
					t.Errorf("solver: unexpected status %d", code)
					return
				}
			}
		}(g)
	}
	<-done
	wg.Wait()

	cs := s.Cache().Stats()
	if cs.Updates != int64(epochs) {
		t.Fatalf("published %d epochs, want %d: %+v", cs.Updates, epochs, cs)
	}
}

// --- binary frame update ----------------------------------------------------

func TestUpdateBinaryFrame(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	h := s.Handler()
	m, n, k := 48, 12, 4
	data := testMatrix(800, m, n, 1)
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	block := testMatrix(801, k, n, 1)

	// Append as [JSON meta, matrix section]; the binary and JSON paths are
	// the same service, so the reply vocabulary is identical.
	body := frameBody(t, map[string]any{"key": fr.Key}, wirefmt.MatrixSection(k, n, block))
	rec := postFrame(t, h, "/v1/update", body, "application/json")
	var ur updateReply
	if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
		t.Fatalf("undecodable binary-append reply %q: %v", rec.Body.String(), err)
	}
	if rec.Code != 200 || ur.Epoch != 1 || ur.Rows != m+k {
		t.Fatalf("binary append: code=%d reply=%+v", rec.Code, ur)
	}

	// A meta-only frame is a downdate; a binary response negotiates back.
	body = frameBody(t, map[string]any{"key": fr.Key, "remove_rows": k})
	rec = postFrame(t, h, "/v1/update", body, "")
	decodeFrameResp(t, rec, &ur)
	if rec.Code != 200 || ur.Epoch != 2 || ur.Rows != m {
		t.Fatalf("binary downdate: code=%d reply=%+v", rec.Code, ur)
	}

	// Smuggling the append block in the JSON meta alongside nothing else is
	// rejected: the matrix must travel as a section.
	body = frameBody(t, map[string]any{"key": fr.Key,
		"append": map[string]any{"rows": k, "cols": n, "data": block}})
	rec = postFrame(t, h, "/v1/update", body, "application/json")
	var er envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("undecodable error reply: %v", err)
	}
	if rec.Code != 400 || er.Error.Code != "bad_input" {
		t.Fatalf("meta-append frame: code=%d error=%+v, want 400 bad_input", rec.Code, er.Error)
	}
}

// TestDowndatedEpochSharesParentA: a downdate publishes its epoch's A as a
// view of the parent's storage, not a copy. The view must behave as the tight
// matrix it stands for: a by-key solve on it returns, bit for bit, what the
// library returns on a tight copy, and its spill file rewarms to the same A
// bits in a new daemon.
func TestDowndatedEpochSharesParentA(t *testing.T) {
	const m, n, k = 300, 16, 7
	dir := t.TempDir()
	data := testMatrix(910, m, n, 1)
	s1 := New(Options{Workers: 2, CacheDir: dir})
	h1 := s1.Handler()
	var fr factorizeReply
	if code, _ := post(t, h1, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	parent, ok := s1.Cache().Get(fr.Key)
	if !ok {
		t.Fatal("factorized entry missing")
	}
	var ur updateReply
	if code, _ := post(t, h1, "/v1/update", map[string]any{"key": fr.Key, "remove_rows": k}, &ur); code != 200 || ur.Rows != m-k {
		t.Fatalf("downdate: code=%d reply=%+v", code, ur)
	}
	down, ok := s1.Cache().Get(ur.Key)
	if !ok {
		t.Fatalf("downdated entry %q missing", ur.Key)
	}
	if down.A.Rows != m-k || &down.A.Data[0] != &parent.A.Data[0] || down.A.Stride != parent.A.Stride {
		t.Fatalf("downdated A is %dx%d with stride %d and its own storage; want a %dx%d view of the parent's (stride %d)",
			down.A.Rows, down.A.Cols, down.A.Stride, m-k, n, parent.A.Stride)
	}
	if got, want := down.sizeBytes(), int64(cap(parent.A.Data)*8+n*n*4); got != want {
		t.Errorf("downdated entry counts %d bytes, want %d (the parent's whole array of A)", got, want)
	}

	tight := tcqr.FromColMajor(m-k, n, colMajorData(down.A))
	b := make([]float64, m-k)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	opts, err := WireSolveOptions{}.options()
	if err != nil {
		t.Fatal(err)
	}
	want, err := LibraryBackend{}.SolveWithFactor(down.F, tight, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	var sr solveReply
	if code, _ := post(t, h1, "/v1/solve", map[string]any{"key": fr.Key, "b": b}, &sr); code != 200 || sr.Key != ur.Key {
		t.Fatalf("by-key solve: code=%d key=%q, want %q", code, sr.Key, ur.Key)
	}
	for j := range want.X {
		if math.Float64bits(sr.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("x[%d] on the view is %v, on a tight copy %v", j, sr.X[j], want.X[j])
		}
	}
	s1.spill.Flush()
	s1.Close()

	s2 := New(Options{Workers: 2, CacheDir: dir})
	defer s2.Close()
	back, ok := s2.Cache().Get(ur.Key)
	if !ok {
		t.Fatalf("downdated entry %q not rewarmed", ur.Key)
	}
	if d := sameEntryBits(back, down); d != "" {
		t.Fatalf("rewarmed downdated entry: %s", d)
	}
}

// --- content keys vs. series keys -------------------------------------------

// TestContentKeyedRequestsIgnoreNewerEpochs: a request that carries its own
// matrix is answered from that matrix. Its cache key is the content hash,
// which is also the bare key of the series the matrix once started — and
// after an update the series' newest epoch factors something else. Both
// shapes of the defect are pinned: an update chain that lands back on the
// same row count (the request used to be answered from the wrong matrix,
// silently) and one that changes it (the request used to be refused). By
// key, the bare key still means the newest epoch.
func TestContentKeyedRequestsIgnoreNewerEpochs(t *testing.T) {
	const m, n, k = 48, 8, 6
	data := testMatrix(900, m, n, 1)
	block := testMatrix(901, k, n, 1)
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j%4) - 1.5
	}
	b := matVecData(m, n, data, xTrue)

	cases := []struct {
		name    string
		updates []map[string]any
		rows    int       // rows of the newest epoch
		newest  []float64 // its matrix
	}{
		{"same row count", []map[string]any{{"remove_rows": k}, {"append": wireMat(k, n, block)}},
			m, stackData(m-k, n, colMajorData(dropRows64(tcqr.FromColMajor(m, n, data), k)), k, block)},
		{"changed row count", []map[string]any{{"append": wireMat(k, n, block)}},
			m + k, stackData(m, n, data, k, block)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{Workers: 2})
			defer s.Close()
			h := s.Handler()
			var fr factorizeReply
			if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
				t.Fatalf("factorize: code=%d", code)
			}
			base := fr.Key
			newest := base
			for _, u := range tc.updates {
				u["key"] = base
				var ur updateReply
				if code, _ := post(t, h, "/v1/update", u, &ur); code != 200 {
					t.Fatalf("update %v: code=%d", u, code)
				}
				newest = ur.Key
			}

			// Inline solve: answered from A, under A's own key, by a fresh
			// factorization (epoch 0 left the index when epoch 1 superseded it).
			var sr solveReply
			code, _ := post(t, h, "/v1/solve", map[string]any{"matrix": wireMat(m, n, data), "b": b}, &sr)
			if code != 200 || sr.Key != base || sr.Cached {
				t.Fatalf("inline solve after updates: code=%d key=%q cached=%v, want a cold 200 under %q", code, sr.Key, sr.Cached, base)
			}
			if d := maxDiff(sr.X, xTrue); d > 1e-6 {
				t.Fatalf("inline solve answered from another matrix: max|x - x*| = %g (key %q)", d, sr.Key)
			}
			// Inline factorize: finds the entry the solve just cached, and
			// describes A, not the newest epoch.
			if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 ||
				fr.Key != base || !fr.Cached || fr.Rows != m {
				t.Fatalf("inline factorize after updates: code=%d reply=%+v", code, fr)
			}

			// By key, the bare key is still the series: re-caching epoch 0
			// beside it rolled nobody back.
			bNew := matVecData(tc.rows, n, tc.newest, xTrue)
			code, _ = post(t, h, "/v1/solve", map[string]any{"key": base, "b": bNew}, &sr)
			if code != 200 || sr.Key != newest || !sr.Cached {
				t.Fatalf("bare-key solve: code=%d key=%q cached=%v, want a hit on %q", code, sr.Key, sr.Cached, newest)
			}
			if d := maxDiff(sr.X, xTrue); d > 1e-4 {
				t.Fatalf("bare-key solve wrong by %g", d)
			}
			var ur updateReply
			if code, _ := post(t, h, "/v1/update", map[string]any{"key": base, "remove_rows": 1}, &ur); code != 200 ||
				ur.Epoch != epochOf(t, newest)+1 || ur.Rows != tc.rows-1 {
				t.Fatalf("update by bare key: code=%d reply=%+v, want epoch %d with %d rows", code, ur, epochOf(t, newest)+1, tc.rows-1)
			}
		})
	}
}

// TestUpdateSurvivesEvictionPressure: the update latch lives in the series
// record, so evicting the entry an update was begun on would drop the latch
// and let a second update of the same series run beside the first — both
// publishing "epoch 1", one of them lost. With a one-entry cache and the
// first update parked inside its apply step, a factorization of another
// matrix must not evict the latched entry (the cache runs one over its bound
// instead), and the second update must queue behind the first.
func TestUpdateSurvivesEvictionPressure(t *testing.T) {
	s := New(Options{Workers: 2, CacheEntries: 1})
	defer s.Close()
	h := s.Handler()
	const m, n = 48, 8
	data := testMatrix(910, m, n, 1)
	blk1, blk2 := testMatrix(911, 6, n, 1), testMatrix(912, 12, n, 1)

	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
		t.Fatalf("factorize A: code=%d", code)
	}
	base := fr.Key

	arm(t, "seed=1;serve.update.apply=delay(300ms)@once=1")
	var first updateReply
	var firstCode int
	done := make(chan struct{})
	go func() {
		defer close(done)
		firstCode, _ = post(t, h, "/v1/update", map[string]any{"key": base, "append": wireMat(6, n, blk1)}, &first)
	}()
	c := s.Cache()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		sr := c.series[base]
		latched := sr != nil && sr.updating
		c.mu.Unlock()
		if latched {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the first update never latched its series")
		}
	}

	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, testMatrix(913, m, n, 1))}, nil); code != 200 {
		t.Fatalf("factorize B: code=%d", code)
	}
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 || !fr.Cached {
		t.Fatalf("factorize A during its update: code=%d cached=%v, want a hit (the latched entry must not be evicted)", code, fr.Cached)
	}
	var second updateReply
	code, _ := post(t, h, "/v1/update", map[string]any{"key": base, "append": wireMat(12, n, blk2)}, &second)
	<-done

	if firstCode != 200 || first.Key != base+"@1" || first.Rows != m+6 {
		t.Fatalf("first update: code=%d reply=%+v, want %s with %d rows", firstCode, first, base+"@1", m+6)
	}
	if code != 200 || second.Key != base+"@2" || second.Rows != m+18 {
		t.Fatalf("second update: code=%d reply=%+v, want %s with %d rows (it must apply on top of the first)", code, second, base+"@2", m+18)
	}
	if cs := c.Stats(); cs.Updates != 2 || cs.Entries != 1 {
		t.Fatalf("cache after the two updates: %+v, want 2 updates and the bound restored", cs)
	}
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j) - 2
	}
	full := stackData(m+6, n, stackData(m, n, data, 6, blk1), 12, blk2)
	var sr solveReply
	code, _ = post(t, h, "/v1/solve", map[string]any{"key": base, "b": matVecData(m+18, n, full, xTrue)}, &sr)
	if code != 200 || sr.Key != base+"@2" {
		t.Fatalf("bare-key solve after both updates: code=%d key=%q", code, sr.Key)
	}
	if d := maxDiff(sr.X, xTrue); d > 1e-4 {
		t.Fatalf("solve after both updates wrong by %g: an update was lost", d)
	}
}
