package tcqr

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"tcqr/internal/matgen"
	"tcqr/internal/tcsim"
)

// errClasses are the sentinels a factorization error can wrap.
var errClasses = []error{ErrEmpty, ErrShape, ErrNonFinite, ErrBreakdown, ErrOverflow}

// sameFactorization reports how got (FactorizeR's) differs from want
// (Factorize's), "" when it does not: the same error, by class and message,
// or the same R, scales, flags, engine statistics and hazards, bit for bit,
// and no Q.
func sameFactorization(got, want *Factorization, gerr, werr error) string {
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			return fmt.Sprintf("error %v, Factorize's %v", gerr, werr)
		}
		for _, c := range errClasses {
			if errors.Is(gerr, c) != errors.Is(werr, c) {
				return fmt.Sprintf("error %v wraps %v: %v, Factorize's: %v", gerr, c, errors.Is(gerr, c), errors.Is(werr, c))
			}
		}
		return ""
	}
	switch {
	case got.Q != nil:
		return "Q is not nil"
	case !bitsEqual(got.R.Data, want.R.Data) || got.R.Rows != want.R.Rows || got.R.Cols != want.R.Cols:
		return "R differs"
	case (got.ColumnScales == nil) != (want.ColumnScales == nil) || !bitsEqual(got.ColumnScales, want.ColumnScales):
		return "column scales differ"
	case got.Reorthogonalized != want.Reorthogonalized:
		return "Reorthogonalized differs"
	case got.EngineStats != want.EngineStats:
		return fmt.Sprintf("engine stats %+v, Factorize's %+v", got.EngineStats, want.EngineStats)
	case !slices.Equal(got.Hazards, want.Hazards):
		return fmt.Sprintf("hazards %v, Factorize's %v", got.Hazards, want.Hazards)
	}
	return ""
}

// TestFactorizeRMatchesFactorize: FactorizeR returns what Factorize returns
// but Q — R, scales, flags, engine statistics and hazards bit for bit, or the
// same error — on every configuration (engine × panel × column scaling ×
// second pass × hazard policy) for every input: κ 1e3 geometric, a zero
// column, rank deficient, subnormal, one entry near 65504, an exponent
// ladder, a NaN, an Inf, and half its columns past the fp16 range. Every
// configuration meets every input once, at a width (16, 128 or 203, default
// cutoff, so 203 recurses) and a source width (float32 or float64) that
// rotate with the pair; the full product would be six times as long.
func TestFactorizeRMatchesFactorize(t *testing.T) {
	type input struct {
		name string
		gen  func(rng *rand.Rand, m, n int) *Matrix
	}
	inputs := []input{
		{"geometric-1e3", func(rng *rand.Rand, m, n int) *Matrix { return matgen.WithCond(rng, m, n, 1e3, matgen.Geometric) }},
		{"zero-column", func(rng *rand.Rand, m, n int) *Matrix { return matgen.WithZeroColumns(rng, m, n, n/2) }},
		{"rank-deficient", func(rng *rand.Rand, m, n int) *Matrix { return matgen.RankDeficient(rng, m, n, n/2) }},
		{"denormal", matgen.DenormalScaled},
		{"huge-entry", matgen.SingleHugeEntry},
		{"exponent-ladder", func(rng *rand.Rand, m, n int) *Matrix { return matgen.ExponentLadder(rng, m, n, -30, 14) }},
		{"nan", func(rng *rand.Rand, m, n int) *Matrix { return matgen.WithNaN(rng, m, n, m/3, n-1) }},
		{"inf", func(rng *rand.Rand, m, n int) *Matrix { return matgen.WithInf(rng, m, n, 1, n/2) }},
		{"fp16-overflow", func(rng *rand.Rand, m, n int) *Matrix {
			a := matgen.Normal(rng, m, n)
			for j := n / 2; j < n; j++ {
				for i := range a.Col(j) {
					a.Col(j)[i] *= 1e5
				}
			}
			return a
		}},
	}
	var cfgs []Config
	for _, e := range tcsim.Kinds() {
		for _, p := range []PanelAlgorithm{PanelCAQR, PanelHouseholder, PanelMGS} {
			for _, noScale := range []bool{false, true} {
				for _, reortho := range []bool{false, true} {
					for _, pol := range []HazardPolicy{HazardFail, HazardFallback} {
						cfgs = append(cfgs, Config{Engine: e, Panel: p, DisableColumnScaling: noScale, ReOrthogonalize: reortho, OnHazard: pol})
					}
				}
			}
		}
	}
	widths := []struct{ m, n int }{{40, 16}, {144, 128}, {216, 203}}
	failures := map[string]int{}
	for ii, in := range inputs {
		var a64 [3]*Matrix
		var a32 [3]*Matrix32
		for w, sh := range widths {
			a64[w] = in.gen(rand.New(rand.NewSource(int64(71+ii))), sh.m, sh.n)
			a32[w] = ToFloat32(a64[w])
		}
		for ci, cfg := range cfgs {
			k := (ci + ii) % (2 * len(widths))
			w, wide := k/2, k%2 == 1
			name := fmt.Sprintf("%s/%dx%d/float64=%v/%v/%v/noscale=%v/reortho=%v/%v", in.name, widths[w].m, widths[w].n, wide,
				cfg.Engine, cfg.Panel, cfg.DisableColumnScaling, cfg.ReOrthogonalize, cfg.OnHazard)
			var got, want *Factorization
			var gerr, werr error
			if wide {
				got, gerr = FactorizeR(a64[w], cfg)
				want, werr = Factorize(a64[w], cfg)
			} else {
				got, gerr = FactorizeR(a32[w], cfg)
				want, werr = Factorize(a32[w], cfg)
			}
			if d := sameFactorization(got, want, gerr, werr); d != "" {
				t.Errorf("%s: %s", name, d)
			}
			if werr != nil {
				failures[in.name]++
			}
		}
	}
	// The cases must reach the error paths they are there for, and the
	// fallback must recover what the fail policy refuses.
	for _, in := range []string{"nan", "inf"} {
		if failures[in] != len(cfgs) {
			t.Errorf("%s: %d of %d configurations failed, want all", in, failures[in], len(cfgs))
		}
	}
	for _, in := range []string{"zero-column", "fp16-overflow"} {
		if failures[in] == 0 || failures[in] >= len(cfgs)/2 {
			t.Errorf("%s: %d of %d configurations failed, want some under HazardFail and none under HazardFallback", in, failures[in], len(cfgs))
		}
	}
}

// TestFactorizeRNonFiniteFactors: an input whose factors come out non-finite
// — half its columns past the fp16 range with the scaling safeguard off, so
// the engine saturates and the panel meets NaN — gets Factorize's error
// through FactorizeR, wrapping both ErrOverflow and ErrBreakdown.
func TestFactorizeRNonFiniteFactors(t *testing.T) {
	a := matgen.Normal(rand.New(rand.NewSource(72)), 512, 256)
	for j := 128; j < 256; j++ {
		for i := range a.Col(j) {
			a.Col(j)[i] *= 1e5
		}
	}
	for _, p := range []PanelAlgorithm{PanelCAQR, PanelHouseholder, PanelMGS} {
		cfg := Config{Panel: p, DisableColumnScaling: true}
		got, gerr := FactorizeR(a, cfg)
		want, werr := Factorize(a, cfg)
		if !errors.Is(werr, ErrOverflow) || !errors.Is(werr, ErrBreakdown) || !strings.Contains(werr.Error(), "non-finite") {
			t.Fatalf("%v: Factorize returned %v, want an overflow into non-finite factors", p, werr)
		}
		if d := sameFactorization(got, want, gerr, werr); d != "" {
			t.Errorf("%v: %s", p, d)
		}
	}
}

// TestFactorizeRKeepsNoWorkspace: the buffer a FactorizeR factored in goes
// back to the free list, and nothing in its result shares it. A second FactorizeR
// of the same shape, which takes that buffer, leaves the first result's
// bits as they were.
func TestFactorizeRKeepsNoWorkspace(t *testing.T) {
	a := testMatrix(73, 1024, 96, 1e3)
	b := matgen.BadlyScaled(rand.New(rand.NewSource(74)), 1024, 96, 3)
	first, err := FactorizeR(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, scales := slices.Clone(first.R.Data), slices.Clone(first.ColumnScales)
	for i := 0; i < 4; i++ {
		if _, err := FactorizeR(b, Config{ReOrthogonalize: i%2 == 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !bitsEqual(first.R.Data, r) || !bitsEqual(first.ColumnScales, scales) {
		t.Error("a later FactorizeR changed an earlier result")
	}
	want, err := Factorize(a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := sameFactorization(first, want, nil, nil); d != "" {
		t.Error(d)
	}
}

// TestFactorizeRConcurrent: concurrent FactorizeR calls of different shapes
// and sources each get Factorize's bits, whichever pooled buffer they take
// (make check runs it under the race detector).
func TestFactorizeRConcurrent(t *testing.T) {
	shapes := []struct{ m, n int }{{300, 40}, {1024, 128}, {512, 200}, {4096, 16}}
	type job struct {
		a32  *Matrix32
		a64  *Matrix
		want *Factorization
	}
	jobs := make([]job, len(shapes))
	for i, sh := range shapes {
		a64 := matgen.WithCond(rand.New(rand.NewSource(int64(75+i))), sh.m, sh.n, 1e3, matgen.Geometric)
		want, err := Factorize(a64, Config{})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{ToFloat32(a64), a64, want}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 6; it++ {
				j := jobs[(g+it)%len(jobs)]
				var got *Factorization
				var err error
				if it%2 == 0 {
					got, err = FactorizeR(j.a64, Config{})
				} else {
					got, err = FactorizeR(j.a32, Config{})
				}
				if d := sameFactorization(got, j.want, err, nil); d != "" {
					t.Errorf("goroutine %d, call %d: %s", g, it, d)
				}
			}
		}()
	}
	wg.Wait()
}
