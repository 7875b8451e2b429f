package lls

import (
	"math/rand"
	"slices"
	"testing"

	"tcqr/internal/dense"
	"tcqr/internal/gram"
	"tcqr/internal/hazard"
	"tcqr/internal/matgen"
	"tcqr/internal/rgs"
)

// TestRefinementHazardEvents pins the events SolveWithFactor records for a
// CGLS refinement, kind, stage, detail and action, on each trajectory
// TestCGLSBitsGolden pins and on the zero-column input at tol 0.5. Only a run
// that stagnates or diverges records one. The zero-column input's R has zeros
// on its diagonal, so every gradient norm, ‖s_0‖ included, is NaN: the
// detail's best is the least of GradNorms, which no NaN is, so it reads +Inf.
func TestRefinementHazardEvents(t *testing.T) {
	stagnation := func(detail string) []hazard.Event {
		return []hazard.Event{{Kind: hazard.KindStagnation, Stage: "cgls", Detail: detail, Action: "keep best iterate"}}
	}
	want := map[string][]hazard.Event{
		"converges": nil,
		"settles":   nil,
		// The guard trips with the best in the settle band: a settle, no event.
		"settles on the guard": nil,
		"diverges": {{Kind: hazard.KindDivergence, Stage: "cgls",
			Detail: "CGLS diverged after 5 iterations (grad 0.000288, best 9.56e-07)", Action: "keep best iterate"}},
		"stagnates":               stagnation("CGLS stagnated after 73 iterations (grad 0.0277, best 0.0213)"),
		"best is x0":              stagnation("CGLS stagnated after 30 iterations (grad NaN, best +Inf)"),
		"zero columns at tol 0.5": stagnation("CGLS stagnated after 30 iterations (grad NaN, best +Inf)"),
	}
	type run struct {
		name string
		f    *rgs.Result
		a    *dense.M64
		b    []float64
		tol  float64
	}
	var runs []run
	for _, tc := range cglsTrajectories(t) {
		// CGLS reads only R; Q gives SolveWithFactor the factorization's shape.
		f := &rgs.Result{Q: dense.New[float32](tc.a.Rows, tc.a.Cols), R: tc.r}
		runs = append(runs, run{tc.name, f, tc.a, tc.b, tc.tol})
	}
	rng := rand.New(rand.NewSource(65))
	zero := matgen.WithZeroColumns(rng, 256, 64, 5)
	zeroB := matgen.Normal(rng, 256, 1).Col(0)
	runs = append(runs, run{"zero columns at tol 0.5",
		factor(t, zero, rgs.Options{Cutoff: 32, Panel: &gram.HouseholderPanel{}}), zero, zeroB, 0.5})
	for _, r := range runs {
		var hz hazard.Report
		if _, err := SolveWithFactor(r.f, r.a, r.b, SolveOptions{Tol: r.tol, Hazards: &hz}); err != nil {
			t.Fatal(err)
		}
		if got := hz.Events(); !slices.Equal(got, want[r.name]) {
			t.Errorf("%s: events %q, want %q", r.name, got, want[r.name])
		}
	}
}
