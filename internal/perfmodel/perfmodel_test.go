package perfmodel

import (
	"math"
	"testing"
)

// within reports x ∈ [lo, hi].
func within(t *testing.T, name string, x, lo, hi float64) {
	t.Helper()
	if x < lo || x > hi {
		t.Errorf("%s = %g, want in [%g, %g]", name, x, lo, hi)
	}
}

func TestCurveInterpolation(t *testing.T) {
	// Exact at calibration nodes.
	for i, k := range Table3K {
		if got := TCGemmTN.At(k); got != TCGemmTN.TFLOPS[i] {
			t.Errorf("TCGemmTN.At(%g) = %g, want node %g", k, got, TCGemmTN.TFLOPS[i])
		}
	}
	// Clamped outside.
	if TCGemmTN.At(1) != TCGemmTN.TFLOPS[0] {
		t.Error("left clamp failed")
	}
	if TCGemmTN.At(1e9) != TCGemmTN.TFLOPS[len(TCGemmTN.TFLOPS)-1] {
		t.Error("right clamp failed")
	}
	// Between ascending nodes, interpolation lies between the endpoints.
	mid := SGeqrf.At(3000)
	if mid <= SGeqrf.At(2048) || mid >= SGeqrf.At(4096) {
		t.Errorf("interpolation at 3000 = %g outside (%g, %g)", mid, SGeqrf.At(2048), SGeqrf.At(4096))
	}
	// Empty curve.
	if (Curve{}).At(10) != 0 {
		t.Error("empty curve should return 0")
	}
}

// TestFigure1Claims checks the two conclusions the paper draws from
// equation (4): enabling TensorCore in the trailing update of tiled
// Householder QR buys only ~30%, and even then the estimate does not
// meaningfully beat cuSOLVER SGEQRF (>6 TFLOPS at this size).
func TestFigure1Claims(t *testing.T) {
	const n = 16384
	bestTC, bestPlain := 0.0, 0.0
	for _, b := range []float64{128, 256, 512, 1024, 2048} {
		tc := HouseholderEstimate(n, b, true)
		plain := HouseholderEstimate(n, b, false)
		if tc < plain {
			t.Errorf("B=%g: TC estimate %g below plain %g", b, tc, plain)
		}
		gain := tc / plain
		within(t, "TC gain", gain, 1.05, 1.60)
		if tc > bestTC {
			bestTC = tc
		}
		if plain > bestPlain {
			bestPlain = plain
		}
	}
	cusolver := SGeqrf.At(n) // 6.67
	within(t, "best TC blocked-Householder vs cuSOLVER", bestTC/cusolver, 0.7, 1.15)
}

// TestFigure2Claims checks equation (7): with the cuSOLVER panel, RGSQRF's
// estimated *time* beats SGEQRF by about 37% once its extra flops are
// accounted for (the paper's exact phrasing), and larger cutoffs are worse.
func TestFigure2Claims(t *testing.T) {
	const m, n = 32768, 16384
	est := RGSQRFEstimate(m, n, 128, true, SGeqrfPanelRate)
	within(t, "Eq7 TFLOPS (SGEQRF panel, B=128)", est, 9.5, 12.5)
	// Time-based advantage: RGSQRF does 2mn², SGEQRF 2mn²−2n³/3.
	tRGS := RGSFlops(m, n) / est
	tHouse := HouseQRFlops(m, n) / SGeqrf.At(n)
	within(t, "Eq7 time advantage over SGEQRF", tHouse/tRGS, 1.25, 1.50)
	// Cutoff sweep: the paper's point is that RGSQRF achieves (near-)
	// optimal performance already at the small cutoff B=128 — important
	// for footprint — rather than needing the huge blocks tiled QR wants.
	best := est
	for _, b := range []float64{256, 512, 1024, 2048} {
		if e := RGSQRFEstimate(m, n, b, true, SGeqrfPanelRate); e > best {
			best = e
		}
	}
	within(t, "B=128 estimate vs best cutoff", est/best, 0.90, 1.0)
	// Without TensorCore the recursion loses badly (Figure 2 right bars).
	plain := RGSQRFEstimate(m, n, 128, false, SGeqrfPanelRate)
	if plain > 0.8*est {
		t.Errorf("FP32 estimate %g too close to TC estimate %g", plain, est)
	}
}

// TestSection313Claims checks the CAQR panel calibration: 3.3× the
// cuSOLVER panel at 32768×128, and the resulting whole-matrix estimate of
// ~27 TFLOPS that the paper validates against its measured 26.2.
func TestSection313Claims(t *testing.T) {
	within(t, "CAQR panel speedup at width 128", CAQRPanel(128)/SGeqrf.At(128), 3.2, 3.4)
	est := RGSQRFEstimate(32768, 16384, 128, true, CAQRPanelRate)
	within(t, "Eq7 with CAQR panel", est, 25, 29)
	// The full pipeline model lands on the paper's measured 26.2 TFLOPS.
	tf := RGSQRFTFLOPS(32768, 16384, PaperConfig)
	within(t, "pipeline TFLOPS at 32768x16384", tf, 24.5, 28.5)
}

// TestFigure6Claims checks the speedup-over-cuSOLVER range (3.0×–14.6×)
// and the 36.6 TFLOPS peak at 32768×32768.
func TestFigure6Claims(t *testing.T) {
	shapes := []struct{ m, n float64 }{
		{32768, 2048}, {32768, 4096}, {32768, 8192}, {32768, 16384}, {32768, 32768},
		{16384, 2048}, {16384, 4096}, {16384, 8192}, {16384, 16384},
	}
	minSp, maxSp := math.Inf(1), 0.0
	for _, s := range shapes {
		rgsTF := RGSQRFTFLOPS(s.m, s.n, PaperConfig)
		speedup := rgsTF / SGeqrfRate(s.n)
		if speedup < minSp {
			minSp = speedup
		}
		if speedup > maxSp {
			maxSp = speedup
		}
		// CAQR panel beats the SGEQRF panel everywhere (left vs right bars).
		sgeqrfPanelCfg := QRConfig{Panel: PanelSGEQRF, TCUpdate: true}
		if RGSQRFTime(s.m, s.n, PaperConfig) > RGSQRFTime(s.m, s.n, sgeqrfPanelCfg) {
			t.Errorf("%gx%g: CAQR panel slower than SGEQRF panel", s.m, s.n)
		}
	}
	within(t, "min Figure 6 speedup", minSp, 2.5, 4.5)   // paper: 3.0×
	within(t, "max Figure 6 speedup", maxSp, 10.0, 18.0) // paper: 14.6×
	peak := RGSQRFTFLOPS(32768, 32768, PaperConfig)
	within(t, "peak TFLOPS at 32768x32768", peak, 31, 45) // paper: 36.6
}

// TestFigure7Claims checks the engine ablation ordering: TC in the panel
// buys almost nothing; TC in the update is critical; without TC, RGSQRF can
// fall below cuSOLVER for squarish matrices.
func TestFigure7Claims(t *testing.T) {
	const m, n = 32768, 16384
	onOn := RGSQRFTime(m, n, QRConfig{Panel: PanelCAQR, TCUpdate: true, TCPanel: true})
	offOn := RGSQRFTime(m, n, QRConfig{Panel: PanelCAQR, TCUpdate: true, TCPanel: false})
	offOff := RGSQRFTime(m, n, QRConfig{Panel: PanelCAQR, TCUpdate: false, TCPanel: false})
	// (on,on) is at most slightly faster than (off,on).
	within(t, "panel TC gain", offOn/onOn, 1.0, 1.15)
	// (off,on) is much faster than (off,off).
	if offOff < 1.8*offOn {
		t.Errorf("update TC gain too small: off/on %g, off/off %g", offOn, offOff)
	}
	// Without TC anywhere, the recursion is capped by the SGEMM rates:
	// under 12 TFLOPS, i.e. it loses the entire headline advantage. (The
	// paper additionally measured it *below* cuSOLVER for squarish
	// matrices; pure Table-3 composition cannot reproduce that last bit —
	// see EXPERIMENTS.md — but the "TC in update is what matters" ordering
	// is fully reproduced.)
	tfPlain := RGSFlops(m, n) / offOff / 1e12
	within(t, "TC-less RGSQRF TFLOPS", tfPlain, 4, 12)
}

// TestFigure5Claims checks RGSQRF-ReOrtho vs SGEQRF+SORMQR: the paper
// reports 3.7×–7.7× across shapes; the model reproduces the win at every
// shape with factors in the same band.
func TestFigure5Claims(t *testing.T) {
	minR, maxR := math.Inf(1), 0.0
	for _, s := range []struct{ m, n float64 }{
		{16384, 2048}, {16384, 4096}, {16384, 8192},
		{32768, 2048}, {32768, 4096}, {32768, 8192}, {32768, 16384}, {32768, 32768},
	} {
		house := SGeqrfTime(s.m, s.n) + SOrmqrFormQTime(s.m, s.n)
		re := ReorthoTime(s.m, s.n, PaperConfig)
		r := house / re
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	within(t, "min Figure 5 ratio", minR, 2.5, 4.2) // paper: 3.7×
	within(t, "max Figure 5 ratio", maxR, 4.5, 8.5) // paper: 7.7×
}

// TestFigure8Claims checks the LLS solver time model: RGSQRF+CGLS beats
// SCuSOLVE and DCuSOLVE at every shape, with speedups growing as matrices
// get thinner and the double-precision speedup roughly twice the single.
func TestFigure8Claims(t *testing.T) {
	const iters = 10 // typical measured CGLS count for κ ≤ 1e4
	var spS, spD []float64
	for _, s := range []struct{ m, n float64 }{
		{32768, 2048}, {32768, 4096}, {32768, 8192}, {32768, 16384},
	} {
		ts := LLSTimes(s.m, s.n, iters, PaperConfig)
		if ts.RGSQRFCGLS >= ts.SCuSolve {
			t.Errorf("%gx%g: RGSQRF+CGLS (%g s) not faster than SCuSOLVE (%g s)", s.m, s.n, ts.RGSQRFCGLS, ts.SCuSolve)
		}
		spS = append(spS, ts.SCuSolve/ts.RGSQRFCGLS)
		spD = append(spD, ts.DCuSolve/ts.RGSQRFCGLS)
	}
	for i := range spS {
		// RGSQRF+CGLS always wins, and the double-precision speedup is
		// roughly twice the single (Figure 8's twin bars).
		within(t, "S speedup", spS[i], 2.0, 10.0)
		within(t, "DCuSolve/SCuSolve speedup ratio", spD[i]/spS[i], 1.6, 2.4)
	}
	// Peak speedups across the sweep including the squarish extreme reach
	// the paper's band (up to 8.9×/13.5×).
	sq := LLSTimes(32768, 32768, iters, PaperConfig)
	within(t, "max S speedup", sq.SCuSolve/sq.RGSQRFCGLS, 6.0, 12.0)
	within(t, "max D speedup", sq.DCuSolve/sq.RGSQRFCGLS, 12.0, 24.0)
	// More iterations erode the speedup (the Figure 8d geometric case).
	hard := LLSTimes(32768, 16384, 200, PaperConfig)
	easy := LLSTimes(32768, 16384, 5, PaperConfig)
	if hard.RGSQRFCGLS <= easy.RGSQRFCGLS {
		t.Error("iteration cost not monotone")
	}
}

// TestTable2Claims checks the MAGMA hybrid model: peak near B=64, steep
// decline at large block sizes, and TensorCore buying at most ~20% at the
// best block size — the paper's motivating negative result.
func TestTable2Claims(t *testing.T) {
	const m, n = 32768, 16384
	bs := []float64{32, 64, 128, 256, 512, 768}
	paperPlain := []float64{4.58, 6.09, 4.51, 3.36, 1.73, 0.86}
	paperTC := []float64{4.63, 7.02, 4.87, 3.52, 1.64, 0.86}
	var bestB float64
	best := 0.0
	for i, b := range bs {
		plain := MagmaHybridQRTFLOPS(m, n, b, false)
		tc := MagmaHybridQRTFLOPS(m, n, b, true)
		// Within 50% of the measured Table 2 values (it is a two-knob
		// model of a complex pipeline; the shape is what matters).
		within(t, "Table2 plain", plain/paperPlain[i], 0.5, 1.6)
		within(t, "Table2 TC", tc/paperTC[i], 0.5, 1.6)
		if plain > best {
			best, bestB = plain, b
		}
		// TC helps a little at moderate block sizes and can even hurt at
		// the extremes (the paper's own Table 2 has TC below plain at
		// B=512: 1.64 vs 1.73 — tensor cores are poor at small k).
		within(t, "Table2 TC/plain", tc/plain, 0.85, 1.3)
	}
	if bestB != 64 {
		t.Errorf("best block size %g, want 64", bestB)
	}
	// Large blocks collapse (panel-bound).
	if MagmaHybridQRTFLOPS(m, n, 768, true) > 1.5 {
		t.Error("B=768 should be panel-bound and slow")
	}
}

// TestTable4Times checks the QR-SVD time model: RGSQRF-SVD ~6.4× faster
// than SGEQRF-SVD on the paper's 524288×1024 tall-skinny matrix.
func TestTable4Times(t *testing.T) {
	rgsT, sgeT := QRSVDTimes(524288, 1024)
	within(t, "Table 4 QR-SVD speedup", sgeT/rgsT, 4.0, 9.0) // paper: 6.4×
	if rgsT <= 0 || sgeT <= 0 {
		t.Fatal("non-positive times")
	}
}

func TestFlopHelpers(t *testing.T) {
	if GemmFlops(2, 3, 4) != 48 {
		t.Error("GemmFlops")
	}
	if math.Abs(HouseQRFlops(10, 10)-(2*1000-2.0/3.0*1000)) > 1e-9 {
		t.Error("HouseQRFlops")
	}
	if RGSFlops(10, 5) != 500 {
		t.Error("RGSFlops")
	}
}

func TestTimeBreakdown(t *testing.T) {
	// Components sum to the total time.
	for _, s := range []struct{ m, n float64 }{{32768, 2048}, {32768, 16384}} {
		bd := TimeBreakdown(s.m, s.n, PaperConfig)
		total := RGSQRFTime(s.m, s.n, PaperConfig)
		if math.Abs(bd.Total()-total)/total > 1e-12 {
			t.Errorf("%gx%g: breakdown total %g vs %g", s.m, s.n, bd.Total(), total)
		}
	}
	// Panel fraction falls as n grows (the skinny-matrix observation).
	skinny := TimeBreakdown(32768, 2048, PaperConfig).PanelFraction()
	square := TimeBreakdown(32768, 32768, PaperConfig).PanelFraction()
	if skinny <= square {
		t.Errorf("panel fraction should shrink with n: skinny %g, square %g", skinny, square)
	}
	if skinny < 0.4 {
		t.Errorf("skinny shapes should be panel-dominated, got %g", skinny)
	}
	// Pure panel case.
	bd := TimeBreakdown(4096, 128, PaperConfig)
	if bd.GemmSeconds != 0 || bd.PanelFraction() != 1 {
		t.Errorf("n <= cutoff should be all panel: %+v", bd)
	}
	if (Breakdown{}).PanelFraction() != 0 {
		t.Error("zero breakdown fraction")
	}
}
