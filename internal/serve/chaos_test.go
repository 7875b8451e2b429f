package serve

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tcqr/internal/faultinject"
	"tcqr/internal/matgen"
)

// This file is the chaos/soak battery: many concurrent clients against a
// seeded fault schedule spanning every failpoint layer — panics inside
// Factorize, slow pool enqueues, wire decode errors, pool dequeue
// panics. The invariants are structural, not value-level: no request hangs,
// no response is lost, every status is one the API promises, the response
// and error counters account for exactly the traffic sent, and the server
// drains to idle afterwards. Run it under -race; skip it under -short.

// legalChaosStatus are the statuses a request may legally see while faults
// are being injected: success, client-class rejections, numerical refusal,
// backpressure, internals from injected faults (one 500 per failed compute),
// and deadline 504s. Nothing drains while the traffic runs, so a 503 is not
// among them.
var legalChaosStatus = map[int]bool{
	200: true, 400: true, 404: true, 413: true, 422: true,
	429: true, 500: true, 504: true,
}

func TestChaosBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos battery skipped in -short mode")
	}
	const (
		clients  = 64
		iters    = 8
		matrices = 5
		m, n     = 48, 12
	)
	s := New(Options{
		Workers:    4,
		QueueDepth: 512,
	})
	defer s.Close()
	h := s.Handler()
	arm(t, "seed=1337"+
		";serve.cache.factorize=panic@p=0.25"+
		";serve.wire.decode=error@p=0.08"+
		";serve.pool.dequeue=panic@p=0.03"+
		";serve.pool.enqueue=delay(50us)@p=0.1")

	type fixture struct {
		mat map[string]any
		x   []float64
		b   []float64
	}
	fixtures := make([]fixture, matrices)
	for i := range fixtures {
		data := testMatrix(uint64(900+i), m, n, 1)
		x := make([]float64, n)
		for j := range x {
			x[j] = float64(i+1) + float64(j)/4
		}
		fixtures[i] = fixture{mat: wireMat(m, n, data), x: x, b: matVecData(m, n, data, x)}
	}

	var (
		mu       sync.Mutex
		byStatus = map[int]int64{}
	)
	note := func(code int) {
		mu.Lock()
		byStatus[code]++
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				fx := &fixtures[(c+it)%matrices]
				switch (c + 3*it) % 4 {
				case 0:
					code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": fx.mat}, nil)
					note(code)
					if !legalChaosStatus[code] {
						t.Errorf("client %d iter %d: factorize status %d not in the API contract", c, it, code)
					}
				case 1, 2:
					var sr solveReply
					code, _ := post(t, h, "/v1/solve", map[string]any{"matrix": fx.mat, "b": fx.b}, &sr)
					note(code)
					if !legalChaosStatus[code] {
						t.Errorf("client %d iter %d: solve status %d not in the API contract", c, it, code)
					}
					// The property invariant: a 200 under fault injection is a
					// real answer, never silent garbage.
					if code == 200 {
						if d := maxDiff(sr.X, fx.x); d > 1e-5 {
							t.Errorf("client %d iter %d: 200 with wrong solution (err %g)", c, it, d)
						}
					}
				case 3:
					code, _ := post(t, h, "/v1/lowrank", map[string]any{"matrix": fx.mat, "rank": 4}, nil)
					note(code)
					if !legalChaosStatus[code] {
						t.Errorf("client %d iter %d: lowrank status %d not in the API contract", c, it, code)
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// No lost responses: every request returned exactly once.
	var total int64
	for _, v := range byStatus {
		total += v
	}
	if total != clients*iters {
		t.Fatalf("observed %d responses, sent %d requests", total, clients*iters)
	}

	// The metrics account for exactly the observed traffic: the per-status
	// response counters match the client-side tally (so every 5xx has its
	// increment), and the error counters sum to the non-200 count.
	respCounts := s.metrics.responses.Snapshot()
	for code, want := range byStatus {
		key := ""
		switch code {
		case 200:
			key = "200"
		default:
			key = itoa(code)
		}
		if got := respCounts[key]; got != want {
			t.Errorf("responses counter for %d: metric %d, observed %d", code, got, want)
		}
	}
	var errSum int64
	for _, v := range s.metrics.errors.Snapshot() {
		errSum += v
	}
	if want := total - byStatus[200]; errSum != want {
		t.Errorf("error counters sum to %d, observed %d non-200 responses", errSum, want)
	}

	// The schedule actually injected faults (otherwise this test is vacuous).
	if len(faultinject.Events()) == 0 {
		t.Fatal("fault schedule never fired")
	}

	// Drain terminates: no stranded counter can park AwaitIdle.
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.AwaitIdle(ctx); err != nil {
		t.Fatalf("AwaitIdle after chaos: %v (pool stats %+v)", err, s.pool.Stats())
	}
}

func itoa(code int) string {
	// strconv-free tiny helper keeps the hot assertion loop obvious.
	digits := [3]byte{byte('0' + code/100), byte('0' + code/10%10), byte('0' + code%10)}
	return string(digits[:])
}

// TestMetamorphicNoSilentGarbage is the property/metamorphic battery: for
// every adversarial matrix class and every fault schedule — including a
// corrupted engine that silently poisons GEMM output with NaN — a solve
// either succeeds within the accuracy bound or fails with a typed error
// code. There is no schedule and no input under which the server returns
// 200 with a wrong answer.
func TestMetamorphicNoSilentGarbage(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic battery skipped in -short mode")
	}
	const m, n = 48, 12
	rng := rand.New(rand.NewSource(4242))
	type matCase struct {
		name string
		data []float64
	}
	cases := []matCase{
		{"well-conditioned", testMatrix(777, m, n, 1)},
		{"rank-deficient", append([]float64(nil), matgen.RankDeficient(rng, m, n, n/2).Data...)},
		{"zero-columns", append([]float64(nil), matgen.WithZeroColumns(rng, m, n, 0, n-1).Data...)},
		{"denormal-scaled", append([]float64(nil), matgen.DenormalScaled(rng, m, n).Data...)},
		{"single-huge-entry", append([]float64(nil), matgen.SingleHugeEntry(rng, m, n).Data...)},
	}
	schedules := []string{
		"", // no faults: the baseline behaviour the fault runs must degrade to, never diverge from
		"seed=1;tcsim.gemm=corrupt@p=0.5",
		"seed=2;serve.cache.factorize=error@p=0.5",
		"seed=3;tcsim.gemm=delay(20us)@p=0.2;serve.pool.dequeue=delay(100us)@p=0.5",
	}
	legalCodes := map[string]bool{
		"bad_input": true, "numerical_hazard": true, "internal": true,
		"overloaded": true, "deadline": true,
	}
	for _, sched := range schedules {
		if sched == "" {
			faultinject.Disarm()
		} else {
			arm(t, sched)
		}
		s := New(Options{Workers: 2})
		for _, mc := range cases {
			x := make([]float64, n)
			for j := range x {
				x[j] = 1 + float64(j)/8
			}
			b := matVecData(m, n, mc.data, x)
			var body struct {
				solveReply
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			code, _ := post(t, s.Handler(), "/v1/solve",
				map[string]any{"matrix": wireMat(m, n, mc.data), "b": b,
					"options": map[string]any{"on_hazard": "fallback"}}, &body)
			switch {
			case code == 200:
				// A success must be a genuine least-squares solution: the
				// returned optimality (normal-equations residual) must be
				// tiny, and every element finite.
				for _, v := range body.X {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s / %q: 200 with non-finite solution", mc.name, sched)
						break
					}
				}
				if !(body.Optimality <= 1e-3) { // negated form catches NaN
					t.Errorf("%s / %q: 200 with optimality %g (silent garbage)", mc.name, sched, body.Optimality)
				}
			case legalCodes[body.Error.Code]:
				// Typed refusal: acceptable under any schedule.
			default:
				t.Errorf("%s / %q: status %d code %q is neither success nor a typed error",
					mc.name, sched, code, body.Error.Code)
			}
		}
		s.Close()
	}
}
