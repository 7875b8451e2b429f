package serve

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStress64ConcurrentClients hammers one server with 64 concurrent
// clients over a handful of overlapping matrices, mixing cold factorizes,
// cache hits, singleflight followers, queued solves and deliberate bad
// requests. It is the -race gate for the whole subsystem: the assertion is
// mostly "nothing tears, every response is one of the statuses the API
// promises, and every solution that comes back is correct".
func TestStress64ConcurrentClients(t *testing.T) {
	const (
		clients  = 64
		iters    = 6
		matrices = 5
		m, n     = 64, 16
	)
	s := New(Options{
		Workers:    4,
		QueueDepth: 256,
	})
	h := s.Handler()

	// Pre-build the shared matrix set; clients overlap on these, so the
	// cache, singleflight and pool all see contention.
	type fixture struct {
		data []float64
		mat  map[string]any
		x    []float64
		b    []float64
	}
	fixtures := make([]fixture, matrices)
	for i := range fixtures {
		data := testMatrix(uint64(100+i), m, n, 1)
		x := make([]float64, n)
		for j := range x {
			x[j] = float64(i+1) + float64(j)/8
		}
		fixtures[i] = fixture{data: data, mat: wireMat(m, n, data), x: x, b: matVecData(m, n, data, x)}
	}

	var solved, factored, rejected atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				fx := &fixtures[(c+it)%matrices]
				switch (c + it) % 3 {
				case 0: // factorize (cold, hit or shared — all must be 200)
					var fr factorizeReply
					code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": fx.mat}, &fr)
					if code != 200 {
						t.Errorf("client %d iter %d: factorize code=%d", c, it, code)
						return
					}
					factored.Add(1)
				case 1: // solve by matrix, verify the answer
					var sr solveReply
					code, _ := post(t, h, "/v1/solve",
						map[string]any{"matrix": fx.mat, "b": fx.b}, &sr)
					switch code {
					case 200:
						if d := maxDiff(sr.X, fx.x); d > 1e-6 {
							t.Errorf("client %d iter %d: wrong solution, error %g", c, it, d)
							return
						}
						solved.Add(1)
					case 429, 503: // legal backpressure under load
						rejected.Add(1)
					default:
						t.Errorf("client %d iter %d: solve code=%d", c, it, code)
						return
					}
				case 2: // a bad request mixed into the traffic
					var er envelope
					code, _ := post(t, h, "/v1/solve",
						map[string]any{"key": fx.mat["rows"].(int), "b": fx.b}, &er)
					if code != 400 {
						t.Errorf("client %d iter %d: malformed solve code=%d, want 400", c, it, code)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	if solved.Load() == 0 || factored.Load() == 0 {
		t.Fatalf("stress produced no successful work: solved=%d factored=%d", solved.Load(), factored.Load())
	}
	// The cache must have deduplicated: matrices distinct keys, not one per
	// factorize request.
	cs := s.Cache().Stats()
	if cs.Entries != matrices {
		t.Fatalf("cache holds %d entries, want %d", cs.Entries, matrices)
	}
	if cs.Misses > int64(matrices) {
		t.Fatalf("cache missed %d times for %d distinct matrices (singleflight broken?)", cs.Misses, matrices)
	}
	t.Logf("stress: solved=%d factored=%d rejected=%d cache=%+v",
		solved.Load(), factored.Load(), rejected.Load(), cs)
}
