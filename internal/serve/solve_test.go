package serve

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"tcqr"
	"tcqr/internal/matgen"
	"tcqr/internal/wirefmt"
)

// TestServedSolvesAreLibrarySolves: a served solve is
// tcqr.SolveLeastSquaresWithFactor on the cached factor, whatever the method,
// the right-hand side or the wire encoding. For CGLS and LSQR, over a
// normal b, a b whose refinement diverges at tol 1e-30 and a zero b, the
// JSON and the binary reply carry the library's x, iterations, converged and
// optimality bit for bit, and its hazards; "on_hazard":"fallback" answers as
// no on_hazard does; and tcqrd_hazards_total{kind="divergence"} counts
// exactly the requests whose refinement diverged. Method "none", the
// unrefined R⁻¹Qᵀb, needs the Q no cached factor keeps, so it answers 400.
func TestServedSolvesAreLibrarySolves(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const m, n = 512, 64
	a := matgen.WithCond(rng, m, n, 1e3, matgen.Geometric)
	normal := matgen.Normal(rng, m, 1).Col(0)
	s := New(Options{Workers: 2})
	defer s.Close()
	h := s.Handler()
	var fr factorizeReply
	if code, _ := post(t, h, "/v1/factorize", map[string]any{"matrix": wireMat(m, n, a.Data)}, &fr); code != 200 {
		t.Fatalf("factorize: code=%d", code)
	}
	e, ok := s.cache.Get(fr.Key)
	if !ok {
		t.Fatalf("key %q not cached", fr.Key)
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

	cases := []struct {
		name string
		b    []float64
		tol  float64
	}{
		{"normal", normal, 0},
		{"diverges", normal, 1e-30},
		{"zero", make([]float64, m), 0},
	}
	methods := []struct {
		wire string
		lib  tcqr.RefineMethod
	}{{"cgls", tcqr.RefineCGLS}, {"lsqr", tcqr.RefineLSQR}}

	wantDiv, cglsDiverged := int64(0), false
	for _, mt := range methods {
		for _, c := range cases {
			want, err := tcqr.SolveLeastSquaresWithFactor(e.F, e.A, c.b, tcqr.SolveOptions{Method: mt.lib, Tol: c.tol})
			if err != nil {
				t.Fatalf("%s %s: library solve: %v", mt.wire, c.name, err)
			}
			wantHaz := wireHazards(want.Hazards)
			diverged := slices.ContainsFunc(want.Hazards, func(h tcqr.Hazard) bool { return h.Kind == tcqr.HazardDivergence })
			if c.name == "zero" && len(wantHaz) != 0 {
				t.Fatalf("%s zero b: library recorded %v, want nothing", mt.wire, wantHaz)
			}
			if mt.lib == tcqr.RefineCGLS && c.name == "diverges" {
				cglsDiverged = diverged
			}
			check := func(what string, x []float64, meta solveMeta) {
				t.Helper()
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
			}
			for _, onHazard := range []string{"", "fallback"} {
				opts := map[string]any{"method": mt.wire, "tol": c.tol}
				if onHazard != "" {
					opts["on_hazard"] = onHazard
				}
				what := fmt.Sprintf("%s %s on_hazard=%q", mt.wire, c.name, onHazard)

				var sr solveResponse
				if code, _ := post(t, h, "/v1/solve", map[string]any{"key": fr.Key, "b": c.b, "options": opts}, &sr); code != 200 {
					t.Fatalf("%s json: code=%d", what, code)
				}
				check(what+" json", sr.X, sr.solveMeta)

				rec := postFrame(t, h, "/v1/solve", frameBody(t, map[string]any{"key": fr.Key, "options": opts}, wirefmt.VectorSection(c.b)), "")
				if rec.Code != 200 {
					t.Fatalf("%s binary: code=%d body=%q", what, rec.Code, rec.Body.String())
				}
				var meta solveMeta
				secs := decodeFrameResp(t, rec, &meta)
				check(what+" binary", secs[1].Float64s(), meta)

				if diverged {
					wantDiv += 2
				}
			}
		}
	}
	if !cglsDiverged {
		t.Fatal("CGLS at tol 1e-30 recorded no divergence: the diverging case exercises nothing")
	}
	if div := s.metrics.hazards.Snapshot()["divergence"]; div != wantDiv {
		t.Errorf("tcqrd_hazards_total{kind=divergence} = %d, want %d (one per diverging request)", div, wantDiv)
	}
	var er envelope
	body := map[string]any{"key": fr.Key, "b": normal, "options": map[string]any{"method": "none"}}
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
