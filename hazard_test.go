package tcqr

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tcqr/internal/hazard"
	"tcqr/internal/matgen"
	"tcqr/internal/tcsim"
)

// TestOverflowLadderAcceptance is the headline robustness scenario: a
// 2048×512 matrix with one column scaled far past the binary16 maximum,
// factored with the §3.5 scaling safeguard disabled so the engine actually
// overflows. Under the default HazardFail policy the overflow must surface
// as a typed error; under HazardFallback the ladder must recover (re-enable
// scaling), report what it did, and land at fp16-level accuracy.
func TestOverflowLadderAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("2048x512 factorization")
	}
	rng := rand.New(rand.NewSource(21))
	a64 := matgen.Normal(rng, 2048, 512)
	// Scale the last column to ~1e5: far past 65504, and in the trailing
	// block of the recursion so it flows through the engine GEMMs raw.
	for i, v := range a64.Col(511) {
		a64.Col(511)[i] = v * 1e5
	}
	a := ToFloat32(a64)
	cfg := Config{DisableColumnScaling: true}

	// Fail policy: typed error, not garbage.
	_, err := Factorize(a, cfg)
	if err == nil {
		t.Fatal("unscaled overflow must produce a typed error under HazardFail")
	}
	if !errors.Is(err, ErrOverflow) && !errors.Is(err, ErrBreakdown) {
		t.Fatalf("got %v, want ErrOverflow or ErrBreakdown", err)
	}

	// Fallback policy: the ladder recovers and says so.
	cfg.OnHazard = HazardFallback
	f, err := Factorize(a, cfg)
	if err != nil {
		t.Fatalf("fallback ladder failed: %v", err)
	}
	if len(f.Hazards) == 0 {
		t.Fatal("recovery must be recorded in Hazards")
	}
	retried := false
	for _, h := range f.Hazards {
		if h.Action != "" {
			retried = true
		}
	}
	if !retried {
		t.Errorf("no retry action recorded: %v", f.Hazards)
	}
	if f.ColumnScales == nil {
		t.Error("recovery should have re-enabled column scaling")
	}
	if be := f.BackwardError(a); be > 5e-4 {
		t.Errorf("recovered backward error %g, want <= 5e-4", be)
	}
}

// adversarialInputs is the battery of hard 256×64 inputs, in the order of
// its one seeded generator.
func adversarialInputs() []struct {
	name string
	a    *Matrix
} {
	const m, n = 256, 64
	rng := rand.New(rand.NewSource(22))
	return []struct {
		name string
		a    *Matrix
	}{
		{"rank-deficient", matgen.RankDeficient(rng, m, n, n/2)},
		{"zero-columns", matgen.WithZeroColumns(rng, m, n, 0, n/2, n-1)},
		{"cond-1e8", matgen.WithCond(rng, m, n, 1e8, matgen.Geometric)},
		{"denormal-scaled", matgen.DenormalScaled(rng, m, n)},
		{"single-huge-entry", matgen.SingleHugeEntry(rng, m, n)},
		{"badly-scaled", matgen.BadlyScaled(rng, m, n, 7)},
		{"exponent-ladder", matgen.ExponentLadder(rng, m, n, -20, 10)},
	}
}

// TestAdversarialBattery runs every adversarial generator through both
// hazard policies and asserts the "no silent garbage" property: each run
// ends in a typed error, or in finite factors whose backward error is
// bounded — never in NaN/Inf output without a hazard report. The §3.5
// column scaling brings denormal-scaled columns into range, so that input
// must factor outright, on every engine.
func TestAdversarialBattery(t *testing.T) {
	for _, tc := range adversarialInputs() {
		mustFactor := tc.name == "denormal-scaled"
		engines := []Engine{EngineTC}
		if mustFactor {
			engines = tcsim.Kinds()
		}
		for _, pol := range []HazardPolicy{HazardFail, HazardFallback} {
			t.Run(tc.name+"/"+pol.String(), func(t *testing.T) {
				a := ToFloat32(tc.a)
				for _, e := range engines {
					f, err := Factorize(a, Config{Engine: e, Cutoff: 32, OnHazard: pol})
					if err != nil {
						if mustFactor {
							t.Fatalf("%v engine: %v", e, err)
						}
						if !isTypedHazard(err) {
							t.Fatalf("untyped error: %v", err)
						}
						return // a typed refusal satisfies the property
					}
					assertFinite(t, f.Q.Data, "Q")
					assertFinite(t, f.R.Data, "R")
					if be := f.BackwardError(a); !(be <= 5e-3) {
						t.Errorf("%v engine: backward error %g, want <= 5e-3", e, be)
					}
				}
			})
		}
	}
}

// TestRecoveredFactorIsARungFactor: a factorization recovered under
// HazardFallback is the plain factor of one Config. Across the battery and
// the three panels every input factors, every recovery is a rung of the
// Factorize ladder (Stage factorize; no rung reruns the configured panel),
// and Q and R equal, bit for bit, Factorize under HazardFail on the Config
// the last recovery names.
func TestRecoveredFactorIsARungFactor(t *testing.T) {
	recovered := 0
	for _, tc := range adversarialInputs() {
		a := ToFloat32(tc.a)
		for _, p := range []PanelAlgorithm{PanelCAQR, PanelMGS, PanelHouseholder} {
			cfg := Config{Cutoff: 32, Panel: p}
			_, failErr := Factorize(a, cfg)
			cfg.OnHazard = HazardFallback
			f, err := Factorize(a, cfg)
			if err != nil {
				t.Errorf("%s/%v: fallback failed: %v", tc.name, p, err)
				continue
			}
			var last string
			for _, h := range f.Hazards {
				if h.Action == "" {
					continue
				}
				if h.Stage != "factorize" {
					t.Errorf("%s/%v: event %v is not a rung of the Factorize ladder", tc.name, p, h)
				}
				if strings.Contains(h.Action, p.String()+" panel") || strings.Contains(h.Action, "CholQR2") {
					t.Errorf("%s/%v: action %q reruns the configured panel or names CholQR2", tc.name, p, h.Action)
				}
				last = h.Action
			}
			if last == "" {
				if failErr != nil {
					t.Errorf("%s/%v: recovered from %v without recording a rung", tc.name, p, failErr)
				}
				continue
			}
			recovered++
			rungs := engineLadder(cfg, failErr)
			i := slices.IndexFunc(rungs, func(r rung) bool { return r.action == last })
			if i < 0 {
				t.Errorf("%s/%v: last action %q names no rung of the ladder", tc.name, p, last)
				continue
			}
			c := rungs[i].cfg
			c.OnHazard = HazardFail
			want, err := Factorize(a, c)
			if err != nil {
				t.Errorf("%s/%v: the rung %q fails on its own: %v", tc.name, p, last, err)
				continue
			}
			if !bitsEqual(f.Q.Data, want.Q.Data) || !bitsEqual(f.R.Data, want.R.Data) {
				t.Errorf("%s/%v: recovered factors differ from Factorize under %+v", tc.name, p, c)
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no input exercised the ladder")
	}
}

func bitsEqual(x, y []float32) bool {
	return slices.EqualFunc(x, y, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) })
}

// TestAdversarialFallbackRecovers pins the ladder outcomes the battery only
// bounds: a zero column breaks every Gram-Schmidt panel (typed error under
// Fail), and the Householder panel rung of the ladder factors it anyway.
func TestAdversarialFallbackRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := ToFloat32(matgen.WithZeroColumns(rng, 256, 64, 10))
	_, err := Factorize(a, Config{Cutoff: 32})
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("zero column under HazardFail: got %v, want ErrBreakdown", err)
	}
	f, err := Factorize(a, Config{Cutoff: 32, OnHazard: HazardFallback})
	if err != nil {
		t.Fatalf("ladder did not recover from a zero column: %v", err)
	}
	if len(f.Hazards) == 0 {
		t.Error("recovery must be recorded in Hazards")
	}
	assertFinite(t, f.Q.Data, "Q")
	assertFinite(t, f.R.Data, "R")
	if be := f.BackwardError(a); be > 5e-3 {
		t.Errorf("recovered backward error %g", be)
	}
}

// TestInputValidation checks the typed rejection of malformed inputs at
// every public entry point; the ladder must never mask them (a retry cannot
// fix a NaN that was already in the data).
func TestInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	nan := matgen.WithNaN(rng, 64, 16, 3, 5)
	inf := matgen.WithInf(rng, 64, 16, 0, 0)
	b := make([]float64, 64)

	for _, pol := range []HazardPolicy{HazardFail, HazardFallback} {
		cfg := Config{Cutoff: 8, OnHazard: pol}
		if _, err := Factorize(ToFloat32(nan), cfg); !errors.Is(err, ErrNonFinite) {
			t.Errorf("policy %v: NaN input: %v", pol, err)
		}
		if _, err := Factorize(ToFloat32(inf), cfg); !errors.Is(err, ErrNonFinite) {
			t.Errorf("policy %v: Inf input: %v", pol, err)
		}
	}
	if _, err := Factorize((*Matrix32)(nil), Config{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("nil matrix: %v", err)
	}
	if _, err := Factorize(NewMatrix32(0, 4), Config{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("zero rows: %v", err)
	}
	if _, err := Factorize(NewMatrix32(3, 5), Config{}); !errors.Is(err, ErrShape) {
		t.Errorf("wide matrix: %v", err)
	}

	if _, err := SolveLeastSquares(nan, b, SolveOptions{}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("solve NaN matrix: %v", err)
	}
	good := matgen.Normal(rng, 64, 16)
	bNaN := make([]float64, 64)
	bNaN[7] = math.NaN()
	if _, err := SolveLeastSquares(good, bNaN, SolveOptions{}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("solve NaN rhs: %v", err)
	}
	if _, err := SolveLeastSquares(good, b[:10], SolveOptions{}); !errors.Is(err, ErrShape) {
		t.Errorf("solve short rhs: %v", err)
	}

	if _, err := LowRank(ToFloat32(nan), 4, Config{}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("lowrank NaN matrix: %v", err)
	}
	if _, err := LowRank(ToFloat32(good), 0, Config{}); !errors.Is(err, ErrShape) {
		t.Errorf("lowrank rank 0: %v", err)
	}
}

// TestSolveHazardsSurface checks that the solve path propagates both the
// factorization hazards and its own refinement events into the result.
func TestSolveHazardsSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	a := matgen.BadlyScaled(rng, 384, 96, 7)
	p := matgen.NewLLSProblem(rng, a, 0.1)

	// Broken QR config under Fallback: the solve result must carry the
	// recorded engine retry.
	sol, err := SolveLeastSquares(p.A, p.B, SolveOptions{
		QR: Config{Cutoff: 32, DisableColumnScaling: true, OnHazard: HazardFallback},
	})
	if err != nil {
		t.Fatalf("fallback solve failed: %v", err)
	}
	if len(sol.Hazards) == 0 {
		t.Error("solve result should surface the factorization hazards")
	}
	assertFinite(t, sol.X, "X")

	// The same broken config under Fail is a typed error.
	_, err = SolveLeastSquares(p.A, p.B, SolveOptions{
		QR: Config{Cutoff: 32, DisableColumnScaling: true},
	})
	if err == nil {
		t.Fatal("broken QR config under HazardFail must error")
	}
	if !isTypedHazard(err) {
		t.Errorf("untyped solve error: %v", err)
	}
}

func isTypedHazard(err error) bool {
	for _, sentinel := range []error{
		ErrNonFinite, ErrEmpty, ErrShape, ErrBreakdown, ErrOverflow,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

func assertFinite[T float32 | float64](t *testing.T, x []T, name string) {
	t.Helper()
	for i, v := range x {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("%s[%d] = %v: silent non-finite output", name, i, v)
		}
	}
}

// TestSolveWithFactorPropagatesLadderHazards covers the serving subsystem's
// cache-reuse contract: when a cached factorization was produced by ladder
// recovery, every later SolveLeastSquaresWithFactor must carry those
// recovery events in its own Hazards — a client that only ever sees solve
// responses still learns its factorization needed rescuing.
func TestSolveWithFactorPropagatesLadderHazards(t *testing.T) {
	const m, n = 256, 64
	rng := rand.New(rand.NewSource(23))
	a64 := matgen.Normal(rng, m, n)
	for i, v := range a64.Col(n - 1) {
		a64.Col(n - 1)[i] = v * 1e5
	}
	cfg := Config{Cutoff: 16, DisableColumnScaling: true, OnHazard: HazardFallback}
	f, err := Factorize(ToFloat32(a64), cfg)
	if err != nil {
		t.Fatalf("fallback factorization failed: %v", err)
	}
	if len(f.Hazards) == 0 {
		t.Fatal("scenario did not trigger the ladder; the propagation test needs recovery hazards")
	}

	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res, err := SolveLeastSquaresWithFactor(f, a64, b, SolveOptions{})
	if err != nil {
		t.Fatalf("solve with recovered factor: %v", err)
	}
	if len(res.Hazards) < len(f.Hazards) {
		t.Fatalf("solve carries %d hazards, factorization recorded %d; recovery events were dropped",
			len(res.Hazards), len(f.Hazards))
	}
	for i, h := range f.Hazards {
		if res.Hazards[i] != h {
			t.Fatalf("hazard %d mutated in flight: got %+v, want %+v", i, res.Hazards[i], h)
		}
	}
	if !res.Converged {
		t.Errorf("refinement did not converge (optimality %g)", res.Optimality)
	}
}

// TestSolveLeastSquaresNonFiniteInput: SolveLeastSquares narrows A inside
// the factorization's one sweep, and must reject what the float64 check of A
// and then the float32 check of its narrowing rejected, with the same error:
// a NaN, a +Inf, a 1e39 that overflows float32, and a 1e39 ahead of a later
// NaN (the NaN is named: the float64 check came first), under either
// policy. A wide matrix's overflow is named before its shape. Factorize of
// the narrowing names its first ±Inf, as it always did.
func TestSolveLeastSquaresNonFiniteInput(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	cases := []struct {
		name string
		m, n int
		set  func(a *Matrix)
	}{
		{"nan", 200, 16, func(a *Matrix) { a.Set(5, 3, math.NaN()) }},
		{"+inf", 200, 16, func(a *Matrix) { a.Set(0, 7, math.Inf(1)) }},
		{"1e39", 200, 16, func(a *Matrix) { a.Set(100, 2, 1e39) }},
		{"1e39-then-nan", 200, 16, func(a *Matrix) { a.Set(3, 1, -1e39); a.Set(9, 6, math.NaN()) }},
		{"wide-1e39", 8, 16, func(a *Matrix) { a.Set(2, 11, 1e39) }},
	}
	for _, tc := range cases {
		a := matgen.Normal(rng, tc.m, tc.n)
		tc.set(a)
		b := make([]float64, tc.m)
		// The checks SolveLeastSquares made before it narrowed A itself.
		want := hazard.CheckMatrix("A", a)
		if want == nil {
			want = hazard.CheckMatrix("A", ToFloat32(a))
		}
		if want == nil {
			t.Fatalf("%s: test plumbing: the input is finite", tc.name)
		}
		for _, pol := range []HazardPolicy{HazardFail, HazardFallback} {
			_, err := SolveLeastSquares(a, b, SolveOptions{QR: Config{OnHazard: pol}})
			if !errors.Is(err, ErrNonFinite) || err.Error() != "tcqr: "+want.Error() {
				t.Errorf("%s/%v: %v, want tcqr: %v", tc.name, pol, err, want)
			}
			a32 := ToFloat32(a)
			want32 := hazard.CheckMatrix("A", a32)
			_, err = Factorize(a32, Config{OnHazard: pol})
			if !errors.Is(err, ErrNonFinite) || err.Error() != "tcqr: "+want32.Error() {
				t.Errorf("%s/%v: Factorize of the narrowing: %v, want tcqr: %v", tc.name, pol, err, want32)
			}
		}
	}
}

// TestSolveFallbackFactorIsARungFactor: under HazardFallback a CAQR
// breakdown inside SolveLeastSquares refactors A, from its float64 values,
// on the ladder's later rungs. The factor it solves with must be, bit for
// bit, Factorize(ToFloat32(a), c) under HazardFail for the Config c its last
// event names, with the hazards Factorize reports, and the solution the one
// that factor gives.
func TestSolveFallbackFactorIsARungFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	a := matgen.WithZeroColumns(rng, 256, 64, 5)
	b := matgen.Normal(rng, 256, 1).Col(0)
	cfg := Config{Cutoff: 32}
	_, failErr := Factorize(ToFloat32(a), cfg)
	if !errors.Is(failErr, ErrBreakdown) {
		t.Fatalf("CAQR on a zero column: %v, want a breakdown", failErr)
	}
	cfg.OnHazard = HazardFallback
	opts := SolveOptions{QR: cfg}
	res, err := SolveLeastSquares(a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Factorization
	var last string
	for _, h := range f.Hazards {
		if h.Action != "" {
			last = h.Action
		}
	}
	rungs := engineLadder(cfg, failErr)
	i := slices.IndexFunc(rungs, func(r rung) bool { return r.action == last })
	if i < 0 {
		t.Fatalf("last action %q names no rung of the ladder (hazards %v)", last, f.Hazards)
	}
	c := rungs[i].cfg
	c.OnHazard = HazardFail
	want, err := Factorize(ToFloat32(a), c)
	if err != nil {
		t.Fatalf("the rung %q fails on its own: %v", last, err)
	}
	if !bitsEqual(f.Q.Data, want.Q.Data) || !bitsEqual(f.R.Data, want.R.Data) || !bitsEqual(f.ColumnScales, want.ColumnScales) {
		t.Errorf("the recovered factor differs from Factorize(ToFloat32(a), %+v)", c)
	}
	recovered, err := Factorize(ToFloat32(a), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.Hazards, recovered.Hazards) {
		t.Errorf("hazards %v, Factorize of the narrowing reports %v", f.Hazards, recovered.Hazards)
	}
	again, err := SolveLeastSquaresWithFactor(want, a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(res.X, again.X, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		t.Error("the solution differs from the one the rung's factor gives")
	}
}
