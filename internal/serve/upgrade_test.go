package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"tcqr"
	"tcqr/internal/house"
	"tcqr/internal/matgen"
)

func TestUpgradeBudget(t *testing.T) {
	for _, c := range []struct {
		m, n int
		want float64
	}{{1024, 256, 104.3}, {2048, 512, 208.6}, {4096, 128, 62.4}, {2048, 128, 60.8}} {
		if got := upgradeBudget(c.m, c.n); math.Abs(got-c.want) > 0.05 {
			t.Errorf("upgradeBudget(%d, %d) = %.2f, want %.1f", c.m, c.n, got, c.want)
		}
	}
}

// TestUpgradeCarriesEveryField: Upgrade builds the upgraded entry's
// Factorization field by field, since a Factorization is not copied (its
// memoized estimate of ‖A‖₂ is atomic), so every field it has must be one
// Upgrade knows of: Q, which a cached factor does not keep, R, which it
// replaces, and the four it carries over. A field added to
// tcqr.Factorization fails this test until Upgrade carries it too.
func TestUpgradeCarriesEveryField(t *testing.T) {
	known := []string{"Q", "R", "ColumnScales", "Reorthogonalized", "EngineStats", "Hazards"}
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeFor[tcqr.Factorization]()) {
		if f.IsExported() {
			fields = append(fields, f.Name)
		}
	}
	if !slices.Equal(fields, known) {
		t.Errorf("tcqr.Factorization has fields %v, Upgrade knows of %v", fields, known)
	}
}

// TestHotKeyUpgrade drives one key across its upgrade budget with solves by
// key. Until a solve takes the key's iterations past the budget, every
// answer is the library's on the cold factor and no upgrade runs; the
// crossing solve queues exactly one, which publishes house.R32's R in the
// entry's place: same key, epoch, A, bytes, column scales and hazards.
// Every later solve by key is the library's on that R, a request carrying
// the matrix is still a hit (no Factorize), and the telemetry says so: the
// upgrade counters and timer, the iteration histogram by provenance,
// /statz's upgraded count, and the iterations and factor of each solve's
// log line.
func TestHotKeyUpgrade(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	const m, n = 256, 64
	a := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric)
	var logs bytes.Buffer
	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 2, Backend: be, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	defer s.Close()
	h := s.Handler()
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, a.Data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	cold, _ := s.cache.Get(fr.Key)
	r32, err := house.R32(a)
	if err != nil {
		t.Fatal(err)
	}
	hot := &tcqr.Factorization{R: r32, ColumnScales: cold.F.ColumnScales, Hazards: cold.F.Hazards}
	bytesBefore := s.cache.Stats().Bytes

	// The budget is 26.1 iterations at 256×64. About five solves cross it, so
	// forty solves without an upgrade is a fault.
	budget := upgradeBudget(m, n)
	spent, before, after := 0, 0, 0
	for i := 0; after < 3; i++ {
		if i == 40 {
			t.Fatalf("40 solves spent %d iterations against a budget of %.1f and nothing was upgraded", spent, budget)
		}
		b := matgen.Normal(rng, m, 1).Col(0)
		f := cold.F
		if spent > int(budget) {
			f = hot
		}
		want, err := tcqr.SolveLeastSquaresWithFactor(f, a, b, tcqr.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var sr solveReply
		if code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": b}, &sr); code != 200 {
			t.Fatalf("solve %d: code=%d", i, code)
		}
		if !slices.EqualFunc(sr.X, want.X, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) || sr.Iterations != want.Iterations {
			t.Fatalf("solve %d (%d iterations spent before it): x or iterations (%d) differ from the library's (%d) on the factor the key should hold",
				i, spent, sr.Iterations, want.Iterations)
		}
		if f == hot {
			after++
		} else {
			before++
		}
		spent += sr.Iterations
		awaitIdle(t, s)
		wantUp := int64(0)
		if spent > int(budget) {
			wantUp = 1
		}
		if got := s.cache.Stats().Upgraded; got != wantUp || be.upgrade.Load() != wantUp {
			t.Fatalf("after %d iterations (budget %.1f): %d upgrades published, %d backend calls; want %d",
				spent, budget, got, be.upgrade.Load(), wantUp)
		}
	}

	e, _ := s.cache.Get(fr.Key)
	if e == cold || !e.upgraded || e.Key != cold.Key || e.Epoch != cold.Epoch || e.A != cold.A || e.bytes != cold.bytes ||
		!slices.Equal(e.F.ColumnScales, cold.F.ColumnScales) || !slices.Equal(e.F.Hazards, cold.F.Hazards) {
		t.Fatalf("upgraded entry %+v does not stand in for %+v", e, cold)
	}
	if e.F.R.Hash64() != r32.Hash64() || cold.F.R.Hash64() == r32.Hash64() {
		t.Fatal("the upgraded entry's R is not house.R32's, or the cold R already was")
	}
	if st := s.cache.Stats(); st.Bytes != bytesBefore || st.Entries != 1 {
		t.Fatalf("cache after the upgrade: %+v, want 1 entry of %d bytes", st, bytesBefore)
	}

	// A request that carries the matrix resolves the upgraded entry.
	var sr solveReply
	b := matgen.Normal(rng, m, 1).Col(0)
	if code, _ := post(t, h, "/v1/solve", map[string]any{"matrix": wireMat(m, n, a.Data), "b": b}, &sr); code != 200 || !sr.Cached || sr.Key != fr.Key {
		t.Fatalf("content-keyed solve: code=%d cached=%v key=%q", code, sr.Cached, sr.Key)
	}
	if got := be.factorize.Load(); got != 1 {
		t.Fatalf("%d Factorize calls, want the first one only", got)
	}
	after++

	reg := s.metrics
	if got := reg.upgrades.With(upgradePublished).Value(); got != 1 {
		t.Errorf("tcqrd_factor_upgrades_total{outcome=published} = %d, want 1", got)
	}
	if got := reg.upgrades.With(upgradeDropped).Value() + reg.upgrades.With(upgradeFailed).Value(); got != 0 {
		t.Errorf("%d upgrades dropped or failed, want 0", got)
	}
	if got := reg.upgradeSeconds.Count(); got != 1 {
		t.Errorf("tcqrd_factor_upgrade_seconds counts %d, want 1", got)
	}
	if got := reg.itersRGSQRF.Count(); got != int64(before) {
		t.Errorf("refine iterations on rgsqrf: %d solves, want %d", got, before)
	}
	if got := reg.itersHouse64.Count(); got != int64(after) {
		t.Errorf("refine iterations on house64: %d solves, want %d", got, after)
	}
	var statz statzResponse
	if code := get(t, h, "/statz", &statz); code != 200 || statz.Cache.Upgraded != 1 {
		t.Errorf("/statz cache.upgraded = %d (code %d), want 1", statz.Cache.Upgraded, code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	exp := rec.Body.String()
	for _, line := range []string{
		`tcqrd_factor_upgrades_total{outcome="published"} 1`,
		fmt.Sprintf(`tcqrd_refine_iterations_count{factor="house64"} %d`, after),
		"tcqrd_factor_upgrade_seconds_count 1",
	} {
		if !strings.Contains(exp, line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}

	// The last solve's log line names its iterations and the R's provenance;
	// a factorize's names neither.
	var last, first map[string]any
	for _, l := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec["endpoint"] {
		case "solve":
			last = rec
		case "factorize":
			first = rec
		}
	}
	if last["factor"] != factorHouse64 || last["iterations"] != float64(sr.Iterations) {
		t.Errorf("last solve logged factor=%v iterations=%v, want %s %d", last["factor"], last["iterations"], factorHouse64, sr.Iterations)
	}
	if _, ok := first["factor"]; ok || first["iterations"] != nil {
		t.Errorf("factorize logged %v", first)
	}
}

// TestUpgradeOfHardInputs: inputs whose float64 Householder R may not
// precondition (rank-deficient, zero columns, a ladder of column scales)
// are factored under on_hazard=fallback and solved past their budget. Each upgrade publishes or fails, never drops, and a failed
// one leaves the cold entry in place, still serving.
func TestUpgradeOfHardInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	const m, n = 200, 24
	for _, c := range []struct {
		name string
		a    *tcqr.Matrix
	}{
		{"rank-deficient", matgen.RankDeficient(rng, m, n, 12)},
		{"zero-columns", matgen.WithZeroColumns(rng, m, n, 5)},
		{"exponent-ladder", matgen.ExponentLadder(rng, m, n, -60, 60)},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(Options{Workers: 2})
			defer s.Close()
			h := s.Handler()
			var fr factorizeReply
			body := map[string]any{"matrix": wireMat(m, n, c.a.Data), "config": map[string]any{"on_hazard": "fallback"}}
			if code, _ := post(t, h, "/v1/factorize", body, &fr); code != 200 {
				t.Fatalf("factorize: code=%d", code)
			}
			cold, _ := s.cache.Get(fr.Key)
			for i := 0; s.metrics.upgradeSeconds.Count() == 0; i++ {
				if i == 100 {
					t.Fatal("100 solves and no upgrade ran")
				}
				if code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": matgen.Normal(rng, m, 1).Col(0)}, nil); code != 200 {
					t.Fatalf("solve %d: code=%d", i, code)
				}
				awaitIdle(t, s)
			}
			pub, failed := s.metrics.upgrades.With(upgradePublished).Value(), s.metrics.upgrades.With(upgradeFailed).Value()
			t.Logf("published %d, failed %d", pub, failed)
			if pub+failed != 1 || s.metrics.upgrades.With(upgradeDropped).Value() != 0 {
				t.Fatalf("published %d, failed %d, dropped %d; want one published or failed", pub, failed, s.metrics.upgrades.With(upgradeDropped).Value())
			}
			e, _ := s.cache.Get(fr.Key)
			if (failed == 1) != (e == cold) {
				t.Fatalf("failed=%d, and the cold entry is served: %v", failed, e == cold)
			}
			if code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": matgen.Normal(rng, m, 1).Col(0)}, nil); code != 200 {
				t.Fatalf("solve after the upgrade: code=%d", code)
			}
		})
	}
}

// TestUpgradeRacesUpdateEvictionReset: concurrent solves by one key cross
// its budget together while, depending on the round, an append to the key,
// factorizations that evict it, or a Reset race the upgrade they queue. At
// most one upgrade publishes per entry (exactly one when nothing races the
// solves), an update that published is never undone (no epoch-0 entry of the
// series comes back, and the series stays at the update's epoch), and the
// index, the recency list and the byte count agree. make check runs it under
// the race detector. The budget at 64×8 is 3.6 iterations and each solve
// takes 2 or 3, so the second
// of the six solves crosses it.
func TestUpgradeRacesUpdateEvictionReset(t *testing.T) {
	const m, n, solvers = 64, 8, 6
	for round := 0; round < 24; round++ {
		mode := round % 4 // 0 solves alone, 1 + an update, 2 + evictions, 3 + Reset
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			be := &countingBackend{inner: LibraryBackend{}}
			s := New(Options{Workers: 3, CacheEntries: 2, Backend: be})
			defer s.Close()
			h := s.Handler()
			data := testMatrix(uint64(100+round), m, n, 1)
			var fr factorizeReply
			if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, data)}, &fr); code != 200 {
				t.Fatalf("factorize: code=%d", code)
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < solvers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": testMatrix(uint64(g), m, 1, 1)}, nil)
					// 404: evicted or Reset; 400: an append made b a row short.
					if code != 200 && code != 404 && !(mode == 1 && code == 400) {
						t.Errorf("solve %d: code=%d", g, code)
					}
				}(g)
			}
			var updated updateReply
			updateCode := 0
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch mode {
				case 1:
					updateCode, _ = post(t, h, "/v1/update", map[string]any{"key": fr.Key, "append": wireMat(2, n, testMatrix(7, 2, n, 1))}, &updated)
				case 2:
					for k := 0; k < 2; k++ {
						post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, testMatrix(uint64(900+k), m, n, 1))}, nil)
					}
				case 3:
					s.cache.Reset()
				}
			}()
			close(start)
			wg.Wait()
			awaitIdle(t, s)

			st := s.cache.Stats()
			if st.Upgraded > 1+st.Updates || be.upgrade.Load() > 1+st.Updates {
				t.Fatalf("%d upgrades published and %d run over %d entries", st.Upgraded, be.upgrade.Load(), 1+st.Updates)
			}
			if mode == 0 && (st.Upgraded != 1 || be.upgrade.Load() != 1) {
				t.Fatalf("solves alone: %d upgrades published, %d run; want exactly 1", st.Upgraded, be.upgrade.Load())
			}
			s.cache.mu.Lock()
			defer s.cache.mu.Unlock()
			if updateCode == 200 {
				if e := s.cache.entries[fr.Key]; e != nil {
					t.Fatalf("the update published epoch %d, and epoch 0 is indexed again (upgraded=%v)", updated.Epoch, e.upgraded)
				}
				if sr := s.cache.series[fr.Key]; sr != nil && sr.current != nil && sr.current.Epoch != updated.Epoch {
					t.Fatalf("the series is at epoch %d after the update published %d", sr.current.Epoch, updated.Epoch)
				}
			}
			var listed int
			var bytes int64
			for e := s.cache.lru.head; e != nil; e = e.next {
				if s.cache.entries[e.Key] != e {
					t.Fatalf("%s is listed but not indexed", e.Key)
				}
				listed++
				bytes += e.bytes
			}
			if listed != len(s.cache.entries) || listed != s.cache.count || bytes != s.cache.bytes {
				t.Fatalf("%d listed, %d indexed, count %d, %d bytes listed against %d counted",
					listed, len(s.cache.entries), s.cache.count, bytes, s.cache.bytes)
			}
		})
	}
}

// TestUpgradeDroppedAtFullQueueRetries: an upgrade the full queue refuses
// is counted dropped, and the next solve over budget queues it again.
func TestUpgradeDroppedAtFullQueueRetries(t *testing.T) {
	const m, n = 64, 8
	be := &countingBackend{inner: LibraryBackend{}}
	s := New(Options{Workers: 1, QueueDepth: 1, Backend: be})
	defer s.Close()
	h := s.Handler()
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, testMatrix(57, m, n, 1))}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	e, _ := s.cache.Get(fr.Key)
	over := int(upgradeBudget(m, n)) + 1

	release := holdWorkers(t, s, be)
	if err := s.pool.submit(func() {}); err != nil {
		t.Fatalf("filling the queue: %v", err)
	}
	s.noteSolve(e, over)
	if got := s.metrics.upgrades.With(upgradeDropped).Value(); got != 1 || e.upgrading.Load() {
		t.Fatalf("at a full queue: %d dropped, upgrading=%v; want 1 and false", got, e.upgrading.Load())
	}
	release()
	awaitIdle(t, s)
	s.noteSolve(e, 1)
	awaitIdle(t, s)
	if got := s.metrics.upgrades.With(upgradePublished).Value(); got != 1 || be.upgrade.Load() != 1 {
		t.Fatalf("after the queue drained: %d published, %d run; want 1 and 1", got, be.upgrade.Load())
	}
}
