package tcqr

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"tcqr/internal/matgen"
	"tcqr/internal/tcsim"
)

// TestEngineLadderConstruction pins the Factorize recovery ladder row by
// row. Rungs accumulate: column scaling first when it was off; after a
// breakdown, each panel sturdier than the configured one (MGS, then
// Householder; none after Householder); then the engine rungs on the last
// panel. The tc-ec rung appears for breakdowns on a plain-TC configuration
// and only there — never after an fp16 overflow (tc-ec shares the fp16
// exponent range and cannot fix one), and an overflow gets no panel rungs
// (no panel causes one). Every rung changes the configuration: none reruns
// the attempt before it.
func TestEngineLadderConstruction(t *testing.T) {
	breakdown := fmt.Errorf("panel: %w", ErrBreakdown)
	overflow := fmt.Errorf("engine: %w", ErrOverflow)
	// factorizeOnce wraps a breakdown under overflow in both sentinels.
	overflowBreakdown := fmt.Errorf("engine: %w: %w", ErrOverflow, breakdown)
	const (
		scaling = "retry with column scaling"
		mgs     = "retry with mgs panel"
		house   = "retry with householder panel"
		tcec    = "retry with error-corrected tensorcore engine"
		bf16    = "retry with bfloat16 engine"
		fp32    = "retry with fp32 engine"
	)
	cases := []struct {
		name string
		cfg  Config
		err  error
		want []string
	}{
		{"tc-breakdown", Config{}, breakdown, []string{mgs, house, tcec, bf16, fp32}},
		{"tc-overflow", Config{}, overflow, []string{bf16, fp32}},
		{"tc-overflow-breakdown", Config{}, overflowBreakdown, []string{bf16, fp32}},
		{"tcec-breakdown", Config{Engine: EngineTCEC}, breakdown, []string{mgs, house, bf16, fp32}},
		{"bf16-breakdown", Config{Engine: EngineBF16}, breakdown, []string{mgs, house, fp32}},
		{"fp32-breakdown", Config{Engine: EngineFP32}, breakdown, []string{mgs, house}},
		{"unscaled-overflow", Config{DisableColumnScaling: true}, overflow, []string{scaling, bf16, fp32}},
		{"unscaled-breakdown", Config{DisableColumnScaling: true}, breakdown, []string{scaling, mgs, house, tcec, bf16, fp32}},
		{"cholqr-breakdown", Config{Panel: PanelCholQR}, breakdown, []string{mgs, house, tcec, bf16, fp32}},
		{"cholqr-overflow", Config{Panel: PanelCholQR}, overflow, []string{bf16, fp32}},
		{"mgs-breakdown", Config{Panel: PanelMGS}, breakdown, []string{house, tcec, bf16, fp32}},
		{"mgs-overflow", Config{Panel: PanelMGS}, overflow, []string{bf16, fp32}},
		{"householder-breakdown", Config{Panel: PanelHouseholder}, breakdown, []string{tcec, bf16, fp32}},
		{"householder-overflow", Config{Panel: PanelHouseholder}, overflow, []string{bf16, fp32}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rungs := engineLadder(c.cfg, c.err)
			var got []string
			for _, r := range rungs {
				got = append(got, r.action)
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Fatalf("ladder actions %v, want %v", got, c.want)
			}
			prev := c.cfg
			for _, r := range rungs {
				if r.cfg == prev {
					t.Errorf("rung %q reruns the configuration before it: %+v", r.action, r.cfg)
				}
				if r.cfg.DisableColumnScaling {
					t.Errorf("rung %q runs without column scaling", r.action)
				}
				switch r.action {
				case mgs:
					if r.cfg.Panel != PanelMGS || r.cfg.Engine != c.cfg.Engine {
						t.Errorf("mgs rung runs %+v", r.cfg)
					}
				case house:
					if r.cfg.Panel != PanelHouseholder || r.cfg.Engine != c.cfg.Engine {
						t.Errorf("householder rung runs %+v", r.cfg)
					}
				case tcec:
					if r.cfg.Engine != EngineTCEC {
						t.Errorf("tc-ec rung does not select EngineTCEC: %+v", r.cfg)
					}
				}
				if r.cfg.Engine != c.cfg.Engine && r.cfg.Panel != prev.Panel {
					t.Errorf("engine rung %q changed the panel: %+v after %+v", r.action, r.cfg, prev)
				}
				prev = r.cfg
			}
		})
	}
}

// TestTcEcConfigFactorize pins the EngineTCEC top-level engine end to end: the
// factorization's engine GEMM work runs entirely on the error-corrected
// simulant (observer proof), and its backward error matches the fp32
// engine's to within a small factor — on a matrix where the plain TC engine
// is measurably worse.
func TestTcEcConfigFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := ToFloat32(matgen.WithCond(rng, 384, 96, 1000, matgen.Geometric))

	var mu sync.Mutex
	calls := map[string]int64{}
	unobserve := tcsim.RegisterGemmObserver(func(engine string, m, n, k int) {
		mu.Lock()
		calls[engine]++
		mu.Unlock()
	})
	defer unobserve()

	// Cutoff 32 < 96 columns forces recursion, so the top-level engine does
	// the inter-panel projection GEMMs.
	f, err := Factorize(a, Config{Engine: EngineTCEC, Cutoff: 32})
	if err != nil {
		t.Fatalf("tc-ec factorization failed: %v", err)
	}
	mu.Lock()
	ec, tc := calls["TCEC-GEMM"], calls["TC-GEMM"]
	mu.Unlock()
	if ec == 0 {
		t.Error("no TCEC-GEMM calls observed; EngineTCEC did not reach the engine")
	}
	if tc != 0 {
		t.Errorf("%d plain TC-GEMM calls under EngineTCEC; engine selection leaked", tc)
	}
	if f.EngineStats.GemmCalls != ec {
		t.Errorf("EngineStats.GemmCalls = %d, observer saw %d", f.EngineStats.GemmCalls, ec)
	}

	fTC, err := Factorize(a, Config{Cutoff: 32})
	if err != nil {
		t.Fatalf("plain TC factorization failed: %v", err)
	}
	fFP, err := Factorize(a, Config{Engine: EngineFP32, Cutoff: 32})
	if err != nil {
		t.Fatalf("fp32 factorization failed: %v", err)
	}
	beEC, beTC, beFP := f.BackwardError(a), fTC.BackwardError(a), fFP.BackwardError(a)
	t.Logf("backward error: tc=%.3e  tc-ec=%.3e  fp32=%.3e", beTC, beEC, beFP)
	if !(beEC < beTC) {
		t.Errorf("tc-ec backward error %g not strictly below plain TC %g", beEC, beTC)
	}
	if beEC > 8*beFP {
		t.Errorf("tc-ec backward error %g exceeds 8× fp32 %g", beEC, beFP)
	}
}

// TestEngineStatsCoverPanelEngineWork: the engine runs every split GEMM and
// the panel none, so EngineStats must count exactly the TC-GEMM calls a
// process-wide observer sees.
func TestEngineStatsCoverPanelEngineWork(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := ToFloat32(matgen.WithCond(rng, 1024, 256, 100, matgen.Geometric))
	var observed atomic.Int64
	unobserve := tcsim.RegisterGemmObserver(func(engine string, m, n, k int) {
		if engine == "TC-GEMM" {
			observed.Add(1)
		}
	})
	f, err := Factorize(a, Config{})
	unobserve()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f.EngineStats.GemmCalls, observed.Load(); got != want || want == 0 {
		t.Errorf("EngineStats.GemmCalls = %d, observer saw %d TC-GEMM calls", got, want)
	}
}
