package tcqr

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tcqr/internal/gram"
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

// TestTcEcPanelEscalationBattery is the root half of the escalation
// acceptance property: a TensorCoreInPanel factorization under
// HazardFallback trips the panel quality gate at the plain engine's ~2⁻¹¹
// error floor and must recover on the tc-ec rung — precision-loss hazards
// recorded, zero escalations to an fp32 panel, backward error equal (same
// order) to the all-fp32 run — while a GEMM observer proves the hot path
// actually ran on the error-corrected tensor-core simulant.
func TestTcEcPanelEscalationBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := ToFloat32(matgen.WithCond(rng, 512, 64, 100, matgen.Geometric))

	var mu sync.Mutex
	calls := map[string]int64{}
	unobserve := tcsim.RegisterGemmObserver(func(engine string, m, n, k int) {
		mu.Lock()
		calls[engine]++
		mu.Unlock()
	})
	defer unobserve()
	snapshot := func(name string) int64 {
		mu.Lock()
		defer mu.Unlock()
		return calls[name]
	}

	f, err := Factorize(a, Config{TensorCoreInPanel: true, OnHazard: HazardFallback})
	if err != nil {
		t.Fatalf("fallback factorization failed: %v", err)
	}
	loss := 0
	for _, h := range f.Hazards {
		if h.Kind != HazardPrecisionLoss {
			continue
		}
		loss++
		if !strings.Contains(h.Action, "TCEC-GEMM") {
			t.Errorf("precision-loss event escalated to %q, want the tc-ec rung", h.Action)
		}
		if strings.Contains(h.Action, "MGS") || strings.Contains(h.Action, "SGEQRF") {
			t.Errorf("precision-loss event %q reached an fp32 panel", h.Action)
		}
	}
	if loss == 0 {
		t.Fatalf("quality gate never tripped; the battery needs the plain-TC panel at its error floor (hazards: %v)", f.Hazards)
	}
	be := f.BackwardError(a)
	if be > gram.DefaultPanelTol {
		t.Fatalf("recovered backward error %g above the %g gate", be, gram.DefaultPanelTol)
	}
	tcCalls, ecCalls := snapshot("TC-GEMM"), snapshot("TCEC-GEMM")
	if tcCalls == 0 {
		t.Error("no plain-TC GEMMs observed; the first rung never ran")
	}
	if ecCalls == 0 {
		t.Error("no tc-ec GEMMs observed; recovery left the tensor-core simulant")
	}

	// The all-fp32 reference: equal backward error (same order), reached
	// here with zero fp32 panel work. Run after the snapshot so its SGEMMs
	// don't pollute the hot-path assertion.
	fRef, err := Factorize(a, Config{Engine: EngineFP32})
	if err != nil {
		t.Fatalf("fp32 reference failed: %v", err)
	}
	beRef := fRef.BackwardError(a)
	if be > 4*beRef && beRef > 4*be {
		t.Errorf("backward errors not comparable: tc-ec recovery %g vs fp32 %g", be, beRef)
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

// TestEngineStatsCoverPanelEngineWork: one engine instance serves the split
// GEMMs and, under TensorCoreInPanel, the panel — so EngineStats must count
// exactly the TC-GEMM calls a process-wide observer sees, with the ablation
// on or off. (With a separate panel engine the 1024×256 ablation run
// reported 2 calls of 46.)
func TestEngineStatsCoverPanelEngineWork(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := ToFloat32(matgen.WithCond(rng, 1024, 256, 100, matgen.Geometric))
	for _, inPanel := range []bool{false, true} {
		var observed atomic.Int64
		unobserve := tcsim.RegisterGemmObserver(func(engine string, m, n, k int) {
			if engine == "TC-GEMM" {
				observed.Add(1)
			}
		})
		f, err := Factorize(a, Config{TensorCoreInPanel: inPanel})
		unobserve()
		if err != nil {
			t.Fatalf("TensorCoreInPanel=%v: %v", inPanel, err)
		}
		if got, want := f.EngineStats.GemmCalls, observed.Load(); got != want || want == 0 {
			t.Errorf("TensorCoreInPanel=%v: EngineStats.GemmCalls = %d, observer saw %d TC-GEMM calls", inPanel, got, want)
		}
	}
}
