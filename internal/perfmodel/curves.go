// Package perfmodel is the analytic V100 device model used to regenerate
// the paper's performance results (Tables 2-3, Figures 1, 2, 5, 6, 7, 8).
//
// This environment has no GPU, so wall-clock measurements of the pure-Go
// simulator would say nothing about the paper's performance claims. The
// paper's claims, however, are *composition* claims: given the measured
// throughput of the device's primitive operations (its own Table 3
// microbenchmarks — TC-GEMM, SGEMM and the SGEQRF panel as functions of the
// inner dimension k), the performance of each QR algorithm follows from how
// the algorithm decomposes into those primitives. The paper itself derives
// Figures 1 and 2 this way, via equations (4) and (7). This package encodes
// the Table 3 calibration data and applies the same composition to every
// algorithm in the repository, so the benchmark harness can report
// simulated V100 times/TFLOPS whose *shape* (who wins, by what factor,
// where the crossovers fall) reproduces the paper.
//
// Calibration sources, all from the paper:
//   - Table 3: TC-GEMM / SGEMM throughput for both GEMM shapes, and the
//     cuSOLVER SGEQRF panel rate, as functions of k at m = 32768;
//   - Section 3.1.3: the hand-written CAQR panel reaches 0.33 TFLOPS on a
//     32768×128 panel (3.3× the cuSOLVER panel);
//   - Table 2: MAGMA's hybrid CPU/GPU QR throughput used to calibrate the
//     CPU panel rate of the hybrid pipeline model;
//   - V100 PCIe HBM2 bandwidth of ~900 GB/s for the bandwidth-bound
//     vector stages (GEMV, TRSV) of the LLS solvers.
package perfmodel

import (
	"math"
	"sort"
)

// Curve is a throughput curve in TFLOPS indexed by the GEMM inner dimension
// k, interpolated linearly in (log k → TFLOPS) between calibration points
// and clamped outside them.
type Curve struct {
	K      []float64 // ascending
	TFLOPS []float64
}

// At returns the interpolated throughput at inner dimension k.
func (c Curve) At(k float64) float64 {
	if len(c.K) == 0 {
		return 0
	}
	if k <= c.K[0] {
		return c.TFLOPS[0]
	}
	if k >= c.K[len(c.K)-1] {
		return c.TFLOPS[len(c.TFLOPS)-1]
	}
	i := sort.SearchFloat64s(c.K, k)
	// c.K[i-1] < k <= c.K[i]
	lk0, lk1 := math.Log2(c.K[i-1]), math.Log2(c.K[i])
	t := (math.Log2(k) - lk0) / (lk1 - lk0)
	return c.TFLOPS[i-1] + t*(c.TFLOPS[i]-c.TFLOPS[i-1])
}

// Table3K lists the inner dimensions of the paper's Table 3 microbenchmark.
var Table3K = []float64{128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// The five columns of Table 3 (m = 32768 fixed):
// shape "TN": C(k×k) = A(k×m)·B(m×k) — the R12 = Q1ᵀ·A2 projection shape;
// shape "NN": C(m×k) = A(m×k)·B(k×k) — the A2 − Q1·R12 update shape.
var (
	// TCGemmTN is TensorCore GEMM throughput for the projection shape.
	TCGemmTN = Curve{Table3K, []float64{8.45, 30.17, 56.48, 72.39, 93.53, 97.82, 92.75, 82.32}}
	// SGemmTN is FP32 GEMM throughput for the projection shape.
	SGemmTN = Curve{Table3K, []float64{1.83, 4.19, 8.23, 12.43, 13.54, 12.31, 12.94, 12.96}}
	// TCGemmNN is TensorCore GEMM throughput for the update shape.
	TCGemmNN = Curve{Table3K, []float64{4.44, 11.39, 58.05, 77.58, 87.29, 92.72, 92.20, 83.40}}
	// SGemmNN is FP32 GEMM throughput for the update shape.
	SGemmNN = Curve{Table3K, []float64{2.28, 5.91, 10.19, 12.80, 13.56, 13.04, 13.12, 13.12}}
	// SGeqrf is the cuSOLVER SGEQRF throughput on an m×k panel (column 6);
	// it also serves as the full-matrix cuSOLVER baseline S(m, n) ≈
	// SGeqrf(n), consistent with the paper's ">6 TFLOPS" for 32768×16384.
	SGeqrf = Curve{Table3K, []float64{0.10, 0.14, 0.36, 0.79, 1.55, 2.71, 4.39, 6.67}}
)

// Device constants of the V100 PCIe card used in the paper.
const (
	// MemBandwidth is the HBM2 bandwidth in bytes/second used for the
	// bandwidth-bound stages (GEMV, TRSV, panel passes).
	MemBandwidth = 900e9
	// CAQRPanelTFLOPS128 is the measured rate of the hand-coded CAQR panel
	// on a 32768×128 panel (Section 3.1.3).
	CAQRPanelTFLOPS128 = 0.33
	// DoubleFactor converts single-precision rates to double precision
	// (V100: 14 TFLOPS FP32 vs 7 TFLOPS FP64, and twice the bytes).
	DoubleFactor = 2.0
)

// SOrmqr returns the modelled SORMQR (blocked reflector application)
// throughput. Calibrated equal to the SGEQRF rate, which reproduces the
// paper's Figure 5 ratios (3.7×–7.7×) across shapes.
func SOrmqr(k float64) float64 { return SGeqrf.At(k) }

// CAQRPanel returns the modelled throughput of the CAQR panel on an m×n
// panel. The panel is bandwidth-bound; its arithmetic intensity grows
// linearly with the panel width, so the rate scales as n/128 from the
// measured 0.33 TFLOPS at width 128. The mild m-dependence (the log₈ tree
// depth) is folded into the bandwidth term of PanelTime and ignored here.
func CAQRPanel(n float64) float64 {
	return CAQRPanelTFLOPS128 * n / 128
}

// GemmFlops returns 2·m·n·k.
func GemmFlops(m, n, k float64) float64 { return 2 * m * n * k }

// HouseQRFlops returns the Householder factorization flop count
// 2mn² − (2/3)n³.
func HouseQRFlops(m, n float64) float64 { return 2*m*n*n - 2.0/3.0*n*n*n }

// OrgqrFlops returns the flop count for materializing the thin Q factor,
// ≈ 2mn² − (2/3)n³ (LAPACK xORGQR for a thin m×n Q from n reflectors).
func OrgqrFlops(m, n float64) float64 { return 2*m*n*n - 2.0/3.0*n*n*n }

// RGSFlops returns the recursive Gram-Schmidt flop count ≈ 2mn²
// (recurrence (5) of the paper).
func RGSFlops(m, n float64) float64 { return 2 * m * n * n }
