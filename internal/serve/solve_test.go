package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"tcqr"
	"tcqr/internal/matgen"
	"tcqr/internal/wirefmt"
)

// TestServedSolvesAreLibrarySolves: a served solve is
// tcqr.SolveLeastSquaresWithFactor on the cached factor, whatever the method,
// the right-hand side, the tolerance or the wire encoding. For CGLS and
// LSQR, over a normal b at the default tolerance and at tol 1e-6 (which
// stops both methods iterations earlier, so a server that dropped the wire's
// tol would answer differently), a b whose refinement diverges and a zero b,
// the JSON and the binary reply carry the library's x, iterations, converged
// and optimality bit for bit, and its hazards; "on_hazard":"fallback"
// answers as no on_hazard does; and tcqrd_hazards_total{kind="divergence"}
// counts exactly the requests whose refinement diverged, on the cold factors
// and on the upgrades the solves earn the keys. The diverging b has a key of
// its own: a κ 1e6 Cluster2 A with a consistent b, factored by the bf16
// engine at cutoff 32, on which CGLS blows up before it reaches the float64
// floor. Method "none", the unrefined R⁻¹Qᵀb, needs the Q no cached factor
// keeps, so it answers 400.
func TestServedSolvesAreLibrarySolves(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const m, n = 512, 64
	a := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric)
	normal := matgen.Normal(rng, m, 1).Col(0)
	divA := matgen.WithCond(rng, m, n, 1e6, matgen.Cluster2)
	divB := matgen.NewLLSProblem(rng, divA, 0).B
	s := New(Options{Workers: 2})
	defer s.Close()
	h := s.Handler()
	factorize := func(a *tcqr.Matrix, cfg map[string]any) string {
		var fr factorizeReply
		if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, a.Data), "config": cfg}, &fr); code != 200 {
			t.Fatalf("factorize: code=%d", code)
		}
		return fr.Key
	}
	key := factorize(a, nil)
	divKey := factorize(divA, map[string]any{"engine": "bf16", "cutoff": 32})
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

	cases := []struct {
		name string
		key  string
		b    []float64
		tol  float64
	}{
		{"normal", key, normal, 0},
		{"normal tol 1e-6", key, normal, 1e-6},
		{"diverges", divKey, divB, 0},
		{"zero", key, make([]float64, m), 0},
	}
	methods := []struct {
		wire string
		lib  tcqr.RefineMethod
	}{{"cgls", tcqr.RefineCGLS}, {"lsqr", tcqr.RefineLSQR}}

	// A solve by key refines with the factor its key holds when it runs.
	// These solves take each key past its upgrade budget (about 29
	// iterations at 512×64), so each is held to the library's solve on the
	// entry the cache holds once the pool is idle: the upgraded one from the
	// solve that crossed the budget on. The diverging key's CGLS solves, the
	// first on it, spend 20 iterations, so they all run on the bf16 factor.
	current := func(key string) *Entry {
		t.Helper()
		awaitIdle(t, s)
		e, ok := s.cache.Get(key)
		if !ok {
			t.Fatalf("key %q not cached", key)
		}
		return e
	}
	wantDiv, cglsDiverged, upgraded := int64(0), false, false
	for _, mt := range methods {
		for _, c := range cases {
			for _, onHazard := range []string{"", "fallback"} {
				opts := map[string]any{"method": mt.wire, "tol": c.tol}
				if onHazard != "" {
					opts["on_hazard"] = onHazard
				}
				for _, enc := range []string{"json", "binary"} {
					what := fmt.Sprintf("%s %s on_hazard=%q %s", mt.wire, c.name, onHazard, enc)
					e := current(c.key)
					upgraded = upgraded || e.upgraded
					want, err := tcqr.SolveLeastSquaresWithFactor(e.F, e.A, c.b, tcqr.SolveOptions{Method: mt.lib, Tol: c.tol})
					if err != nil {
						t.Fatalf("%s: library solve: %v", what, err)
					}
					if c.tol != 0 {
						def, err := tcqr.SolveLeastSquaresWithFactor(e.F, e.A, c.b, tcqr.SolveOptions{Method: mt.lib})
						if err != nil {
							t.Fatalf("%s: library solve at the default tol: %v", what, err)
						}
						if def.Iterations == want.Iterations {
							t.Fatalf("%s: %d iterations at tol %g and at the default: the tol case exercises nothing", what, want.Iterations, c.tol)
						}
					}
					wantHaz := wireHazards(want.Hazards)
					diverged := slices.ContainsFunc(want.Hazards, func(h tcqr.Hazard) bool { return h.Kind == tcqr.HazardDivergence })
					if c.name == "zero" && len(wantHaz) != 0 {
						t.Fatalf("%s: library recorded %v for a zero b, want nothing", what, wantHaz)
					}
					cglsDiverged = cglsDiverged || mt.lib == tcqr.RefineCGLS && c.name == "diverges" && diverged

					var (
						x    []float64
						meta solveMeta
					)
					if enc == "json" {
						var sr solveResponse
						if code, _ := post(t, h, "/v1/solve", map[string]any{"key": c.key, "b": c.b, "options": opts}, &sr); code != 200 {
							t.Fatalf("%s: code=%d", what, code)
						}
						x, meta = sr.X, sr.solveMeta
					} else {
						rec := postFrame(t, h, "/v1/solve", frameBody(t, map[string]any{"key": c.key, "options": opts}, wirefmt.VectorSection(c.b)), "")
						if rec.Code != 200 {
							t.Fatalf("%s: code=%d body=%q", what, rec.Code, rec.Body.String())
						}
						x = decodeFrameResp(t, rec, &meta)[1].Float64s()
					}
					if !slices.EqualFunc(x, want.X, sameBits) {
						t.Errorf("%s: x differs from the library's", what)
					}
					if meta.Iterations != want.Iterations || meta.Converged != want.Converged || !sameBits(meta.Optimality, want.Optimality) {
						t.Errorf("%s: iterations/converged/optimality %d/%v/%g, library %d/%v/%g", what,
							meta.Iterations, meta.Converged, meta.Optimality, want.Iterations, want.Converged, want.Optimality)
					}
					if !slices.Equal(meta.Hazards, wantHaz) {
						t.Errorf("%s: hazards %v, library %v", what, meta.Hazards, wantHaz)
					}
					if diverged {
						wantDiv++
					}
				}
			}
		}
	}
	if !upgraded {
		t.Fatal("the key was never upgraded: no solve ran on the upgraded factor")
	}
	if !cglsDiverged {
		t.Fatal("CGLS recorded no divergence: the diverging case exercises nothing")
	}
	if div := s.metrics.hazards.Snapshot()["divergence"]; div != wantDiv {
		t.Errorf("tcqrd_hazards_total{kind=divergence} = %d, want %d (one per diverging request)", div, wantDiv)
	}
	var er envelope
	body := map[string]any{"key": key, "b": normal, "options": map[string]any{"method": "none"}}
	if code, _ := post(t, h, "/v1/solve", body, &er); code != 400 || er.Error.Code != "bad_input" ||
		er.Error.Message != `unknown method "none" (want cgls or lsqr)` {
		t.Errorf(`method "none": %d %s %q, want 400 bad_input`, code, er.Error.Code, er.Error.Message)
	}
}

// TestFirstSolveAttachesNothing: a cached entry is as large after its first
// solve as before it, so the bytes sizeBytes counts are the bytes it holds.
// The first SolveWithFactor on a fresh 1024×256 factor allocates X, GradNorms,
// the result and at most the refinement's pooled slab, far below the 8n²
// bytes a float64 copy of R would take (512 KiB here; it was 14 % of a
// serve-hit entry, and no byte budget saw it).
func TestFirstSolveAttachesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const m, n = 1024, 256
	a := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric)
	b := matgen.Normal(rng, m, 1).Col(0)
	f, err := tcqr.Factorize(a, tcqr.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := (LibraryBackend{}).SolveWithFactor(f, a, b, tcqr.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("first solve on a fresh %dx%d factor: %d bytes allocated", m, n, got)
	if got >= 8*n*n {
		t.Errorf("the first solve on a fresh %dx%d factor allocated %d bytes, at least the %d of a float64 copy of R", m, n, got, 8*n*n)
	}
}

// awaitIdle waits for s's pool to run out of work: an upgrade a solve queued
// has then been published or dropped.
func awaitIdle(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.AwaitIdle(ctx); err != nil {
		t.Fatalf("AwaitIdle: %v (pool=%+v)", err, s.pool.Stats())
	}
}
