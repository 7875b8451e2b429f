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

// TestEngineLadderConstruction pins the error-aware engine ladder: the
// tc-ec rung appears for precision-class failures on a plain-TC
// configuration and only there — never after an fp16 overflow (tc-ec shares
// the fp16 exponent range and cannot fix one), never when the configuration
// already left the plain TensorCore.
func TestEngineLadderConstruction(t *testing.T) {
	breakdown := fmt.Errorf("panel: %w", ErrBreakdown)
	overflow := fmt.Errorf("engine: %w", ErrOverflow)
	const (
		scaling = "retry with column scaling"
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
		{"tc-breakdown", Config{}, breakdown, []string{tcec, bf16, fp32}},
		{"tc-overflow", Config{}, overflow, []string{bf16, fp32}},
		{"tcec-breakdown", Config{Engine: EngineTCEC}, breakdown, []string{bf16, fp32}},
		{"bf16-breakdown", Config{Engine: EngineBF16}, breakdown, []string{fp32}},
		{"fp32-breakdown", Config{Engine: EngineFP32}, breakdown, nil},
		{"unscaled-overflow", Config{DisableColumnScaling: true}, overflow, []string{scaling, bf16, fp32}},
		{"unscaled-breakdown", Config{DisableColumnScaling: true}, breakdown, []string{scaling, tcec, bf16, fp32}},
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
			for _, r := range rungs {
				if r.action == tcec && r.cfg.Engine != EngineTCEC {
					t.Errorf("tc-ec rung does not select EngineTCEC: %+v", r.cfg)
				}
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
