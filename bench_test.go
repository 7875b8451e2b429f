package tcqr

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Two families:
//
//   - Benchmark<Exp>: runs the actual numeric pipeline behind the
//     experiment on the software neural engine at the quick scale, so
//     `go test -bench .` measures the real simulator and the reported
//     custom metrics carry the experiment's headline result (modelled
//     TFLOPS, speedups, error levels);
//   - the experiment rows themselves are printed by cmd/tcqr-tables and
//     validated in internal/experiments tests.
//
// Metrics reported via b.ReportMetric use suffixes:
//   model-TFLOPS   modelled V100 throughput of the algorithm under test
//   paper-x        modelled speedup corresponding to a paper claim
//   err            measured numeric error level

import (
	"math/rand"
	"testing"

	"tcqr/internal/blas"
	"tcqr/internal/experiments"
	"tcqr/internal/matgen"
	"tcqr/internal/perfmodel"
	"tcqr/internal/tcsim"
)

// benchMatrix is the standard quick-scale input reused across benchmarks.
func benchMatrix(b *testing.B, m, n int, cond float64, dist matgen.Dist) *Matrix32 {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	return ToFloat32(matgen.WithCond(rng, m, n, cond, dist))
}

// BenchmarkTable2_MagmaHybridQR evaluates the MAGMA hybrid pipeline model
// across Table 2's block sizes (pure model; the numeric content of Table 2
// is MAGMA's, not this library's).
func BenchmarkTable2_MagmaHybridQR(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		for _, bs := range []float64{32, 64, 128, 256, 512, 768} {
			last = perfmodel.MagmaHybridQRTFLOPS(32768, 16384, bs, true)
		}
	}
	b.ReportMetric(last, "B768-model-TFLOPS")
	b.ReportMetric(perfmodel.MagmaHybridQRTFLOPS(32768, 16384, 64, true), "B64-model-TFLOPS")
}

// BenchmarkTable3_GemmThroughput measures the software TensorCore GEMM on
// the Table 3 projection shape at quick scale, and reports the calibrated
// device throughput the experiment tables use.
func BenchmarkTable3_GemmThroughput(b *testing.B) {
	a := benchMatrix(b, 2048, 128, 10, matgen.Arithmetic)
	c := NewMatrix32(128, 128)
	eng := &tcsim.TensorCore{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Gemm(blas.Trans, blas.NoTrans, 1, a, a, 0, c)
	}
	flops := 2 * float64(128) * 128 * 2048
	b.SetBytes(int64(flops / 2)) // fp16 operand traffic proxy
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "sim-GFLOPS")
	b.ReportMetric(perfmodel.TCGemmTN.At(2048), "device-model-TFLOPS")
}

// BenchmarkFig1_HouseholderEstimate evaluates equation (4).
func BenchmarkFig1_HouseholderEstimate(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		best = 0
		for _, bs := range []float64{128, 256, 512, 1024, 2048} {
			if e := perfmodel.HouseholderEstimate(16384, bs, true); e > best {
				best = e
			}
		}
	}
	b.ReportMetric(best, "best-model-TFLOPS")
}

// BenchmarkFig2_RGSQRFEstimate evaluates the recurrence (7).
func BenchmarkFig2_RGSQRFEstimate(b *testing.B) {
	var est float64
	for i := 0; i < b.N; i++ {
		est = perfmodel.RGSQRFEstimate(32768, 16384, 128, true, perfmodel.SGeqrfPanelRate)
	}
	b.ReportMetric(est, "model-TFLOPS")
}

// BenchmarkFig3_BackwardError factors a conditioned matrix with the
// TensorCore engine and reports the Figure 3 backward error.
func BenchmarkFig3_BackwardError(b *testing.B) {
	a := benchMatrix(b, 512, 128, 1e6, matgen.Arithmetic)
	var be float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Factorize(a, Config{Cutoff: 32})
		if err != nil {
			b.Fatal(err)
		}
		be = f.BackwardError(a)
	}
	b.ReportMetric(be, "backward-err")
}

// BenchmarkFig4_Orthogonality runs the re-orthogonalized factorization and
// reports the Figure 4 orthogonality error.
func BenchmarkFig4_Orthogonality(b *testing.B) {
	a := benchMatrix(b, 512, 128, 1e6, matgen.Arithmetic)
	var oe float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Factorize(a, Config{Cutoff: 32, ReOrthogonalize: true})
		if err != nil {
			b.Fatal(err)
		}
		oe = f.OrthogonalityError()
	}
	b.ReportMetric(oe, "ortho-err")
}

// BenchmarkFig5_OrthoPerformance runs the numeric re-orthogonalization
// pipeline and reports the paper-scale modelled speedup over
// SGEQRF+SORMQR.
func BenchmarkFig5_OrthoPerformance(b *testing.B) {
	a := benchMatrix(b, 512, 128, 1e3, matgen.Geometric)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factorize(a, Config{Cutoff: 32, ReOrthogonalize: true}); err != nil {
			b.Fatal(err)
		}
	}
	house := perfmodel.SGeqrfTime(32768, 16384) + perfmodel.SOrmqrFormQTime(32768, 16384)
	re := perfmodel.ReorthoTime(32768, 16384, perfmodel.PaperConfig)
	b.ReportMetric(house/re, "paper-x")
}

// BenchmarkFig6_PanelEffect factors with the CAQR panel and with the
// Householder panel, reporting the modelled paper-scale speedup over
// cuSOLVER.
func BenchmarkFig6_PanelEffect(b *testing.B) {
	a := benchMatrix(b, 768, 192, 100, matgen.Geometric)
	b.Run("CAQR-panel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Factorize(a, Config{Cutoff: 48}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(perfmodel.RGSQRFTFLOPS(32768, 16384, perfmodel.PaperConfig), "model-TFLOPS")
		b.ReportMetric(perfmodel.RGSQRFTFLOPS(32768, 16384, perfmodel.PaperConfig)/perfmodel.SGeqrfRate(16384), "paper-x")
	})
	b.Run("SGEQRF-panel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Factorize(a, Config{Cutoff: 48, Panel: PanelHouseholder}); err != nil {
				b.Fatal(err)
			}
		}
		cfg := perfmodel.QRConfig{Panel: perfmodel.PanelSGEQRF, TCUpdate: true}
		b.ReportMetric(perfmodel.RGSQRFTFLOPS(32768, 16384, cfg), "model-TFLOPS")
	})
}

// BenchmarkFig7_TCAblation runs the two Figure 7 engine configurations the
// library has: the TensorCore in the update or nowhere. The panel always runs
// in fp32; the model's (on, on) point is perfmodel's (-exp fig7).
func BenchmarkFig7_TCAblation(b *testing.B) {
	a := benchMatrix(b, 768, 192, 100, matgen.Geometric)
	cases := []struct {
		name string
		cfg  Config
		pm   perfmodel.QRConfig
	}{
		{"TC-off-on", Config{Cutoff: 48}, perfmodel.QRConfig{Panel: perfmodel.PanelCAQR, TCUpdate: true}},
		{"TC-off-off", Config{Cutoff: 48, Engine: EngineFP32}, perfmodel.QRConfig{Panel: perfmodel.PanelCAQR}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Factorize(a, c.cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perfmodel.RGSQRFTFLOPS(32768, 16384, c.pm), "model-TFLOPS")
		})
	}
}

// BenchmarkFig8_LLSSolvers runs the full RGSQRF+CGLS pipeline per matrix
// family and reports the paper-scale modelled speedup over SCuSOLVE.
func BenchmarkFig8_LLSSolvers(b *testing.B) {
	for _, panel := range experiments.Fig8Panels {
		b.Run(panel.Name[3:], func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			var a *Matrix
			switch panel.Kind {
			case 0:
				a = matgen.Uniform01(rng, 512, 128)
			case 1:
				a = matgen.UniformSym(rng, 512, 128)
			case 2:
				a = matgen.Normal(rng, 512, 128)
			default:
				a = matgen.WithCond(rng, 512, 128, panel.Cond, panel.Dist)
			}
			prob := matgen.NewLLSProblem(rng, a, 0.1)
			var iters int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := SolveLeastSquares(prob.A, prob.B, SolveOptions{QR: Config{Cutoff: 32}, Tol: 1e-12})
				if err != nil {
					b.Fatal(err)
				}
				iters = sol.Iterations
			}
			times := perfmodel.LLSTimes(32768, 16384, iters, perfmodel.PaperConfig)
			b.ReportMetric(float64(iters), "cgls-iters")
			b.ReportMetric(times.SCuSolve/times.RGSQRFCGLS, "paper-x")
		})
	}
}

// BenchmarkFig9_LLSAccuracy runs the accuracy ladder at the hardest
// condition number and reports the refined optimality.
func BenchmarkFig9_LLSAccuracy(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := matgen.WithCond(rng, 512, 128, 1e6, matgen.Cluster2)
	prob := matgen.NewLLSProblem(rng, a, 0.1)
	var opt float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := SolveLeastSquares(prob.A, prob.B, SolveOptions{QR: Config{Cutoff: 32}, Tol: 1e-13})
		if err != nil {
			b.Fatal(err)
		}
		opt = sol.Optimality
	}
	b.ReportMetric(opt, "optimality-err")
}

// BenchmarkTable4_QRSVD runs the truncated QR-SVD pipeline and reports the
// paper-scale modelled speedup.
func BenchmarkTable4_QRSVD(b *testing.B) {
	a := benchMatrix(b, 1024, 64, 1e6, matgen.Arithmetic)
	var errRel float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr, err := LowRank(a, 16, Config{Cutoff: 32})
		if err != nil {
			b.Fatal(err)
		}
		errRel = lr.Error(a)
	}
	rgsT, sgeT := perfmodel.QRSVDTimes(524288, 1024)
	b.ReportMetric(errRel, "trunc-err")
	b.ReportMetric(sgeT/rgsT, "paper-x")
}

// BenchmarkTcEcFactorize compares the engine tiers end to end at the quick
// paper shape (DESIGN.md §16): the plain TC engine at its ~2⁻¹¹ backward
// error, tc-ec at fp32 order for ~3× the TC GEMM cost, and fp32.
func BenchmarkTcEcFactorize(b *testing.B) {
	a := benchMatrix(b, 512, 128, 100, matgen.Geometric)
	for _, c := range []struct {
		name   string
		engine Engine
	}{{"tc", EngineTC}, {"tc-ec", EngineTCEC}, {"fp32", EngineFP32}} {
		b.Run(c.name, func(b *testing.B) {
			var be float64
			for i := 0; i < b.N; i++ {
				f, err := Factorize(a, Config{Cutoff: 32, Engine: c.engine})
				if err != nil {
					b.Fatal(err)
				}
				be = f.BackwardError(a)
			}
			b.ReportMetric(be, "backward-err")
		})
	}
}

// BenchmarkScaling_Ablation measures the cost of the §3.5 column scaling
// safeguard (it should be negligible).
func BenchmarkScaling_Ablation(b *testing.B) {
	a := benchMatrix(b, 768, 192, 100, matgen.Geometric)
	b.Run("scaling-on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Factorize(a, Config{Cutoff: 48}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scaling-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Factorize(a, Config{Cutoff: 48, DisableColumnScaling: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPanel_CAQRvsHouseholder is the §3.1.3 panel microbenchmark on
// the software engine.
func BenchmarkPanel_CAQRvsHouseholder(b *testing.B) {
	a := benchMatrix(b, 2048, 32, 10, matgen.Arithmetic)
	b.Run("CAQR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Factorize(a, Config{Cutoff: 32}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(perfmodel.CAQRPanel(128)/perfmodel.SGeqrf.At(128), "paper-x")
	})
	b.Run("Householder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Factorize(a, Config{Cutoff: 32, Panel: PanelHouseholder}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
