// Package tcqr is a Go reproduction of "High Accuracy Matrix Computations
// on Neural Engines: A Study of QR Factorization and its Applications"
// (Zhang, Baharlouei, Wu — HPDC 2020): a QR factorization that routes its
// floating point work through a (simulated) neural engine — a TensorCore-
// style unit that multiplies binary16 operands and accumulates in binary32
// — together with the safeguards that recover full accuracy:
//
//   - Factorize: the recursive Gram-Schmidt QR (RGSQRF, Algorithm 1) with a
//     communication-avoiding Gram-Schmidt panel (Section 3.1.3), automatic
//     column scaling against fp16 overflow (Section 3.5), and optional
//     re-orthogonalization (Section 3.3);
//   - SolveLeastSquares: the least squares pipeline of Algorithm 3 — a
//     half-precision QR used as a right preconditioner for CGLS, reaching
//     double-precision optimality in a handful of iterations;
//   - Config.ReOrthogonalize: orthogonalization with "twice is enough"
//     re-orthogonalization (Section 3.3);
//   - LowRank: optimal low-rank approximation by truncated QR-SVD
//     (Section 3.4).
//
// Because no physical neural engine is available to a pure-Go library, the
// half-precision unit is simulated bit-faithfully in software (package
// tcqr/internal/tcsim): operands are rounded to IEEE binary16 with
// round-to-nearest-even (saturating to ±Inf past 65504, the hazard column
// scaling protects against) and products are accumulated in float32,
// exactly the V100 TensorCore contract. Every algorithm can also run with
// the engine disabled (Config.Engine = EngineFP32, plain float32 GEMM) for
// the paper's ablations.
//
// Matrices are column-major with a leading-dimension stride, so LAPACK
// conventions transliterate directly. User-facing data is float64
// (tcqr.Matrix); the simulated device consumes float32 (tcqr.Matrix32),
// mirroring how the paper hands problems to the GPU.
package tcqr

import (
	"fmt"

	"tcqr/internal/dense"
	"tcqr/internal/gram"
	"tcqr/internal/tcsim"
)

// Matrix is a column-major float64 dense matrix; element (i, j) lives at
// Data[i + j*Stride].
type Matrix = dense.Matrix[float64]

// Matrix32 is the float32 matrix type consumed by the simulated device.
type Matrix32 = dense.Matrix[float32]

// NewMatrix allocates a zeroed r×c float64 matrix.
func NewMatrix(r, c int) *Matrix { return dense.New[float64](r, c) }

// NewMatrix32 allocates a zeroed r×c float32 matrix.
func NewMatrix32(r, c int) *Matrix32 { return dense.New[float32](r, c) }

// FromColMajor wraps an existing column-major float64 slice (no copy).
func FromColMajor(r, c int, data []float64) *Matrix {
	return dense.NewFromColMajor(r, c, data)
}

// ToFloat32 narrows a float64 matrix to the device precision.
func ToFloat32(a *Matrix) *Matrix32 { return dense.ToF32(a) }

// PanelAlgorithm selects the panel factorizer used below the recursion
// cutoff — the Figure 6 ablation of the paper.
type PanelAlgorithm int

const (
	// PanelCAQR is the communication-avoiding Gram-Schmidt panel (default,
	// the paper's fast configuration).
	PanelCAQR PanelAlgorithm = iota
	// PanelHouseholder is the blocked Householder (cuSOLVER SGEQRF) panel.
	PanelHouseholder
	// 2 was the Cholesky QR panel, retired. Cache keys and spill files carry
	// int(Panel), so MGS keeps 3.
	_
	// PanelMGS is the plain single-tile modified Gram-Schmidt panel.
	PanelMGS
)

// panelNames holds each panel's wire/flag/metrics name; the retired value 2
// has none.
var panelNames = [...]string{
	PanelCAQR:        "caqr",
	PanelHouseholder: "householder",
	PanelMGS:         "mgs",
}

// String returns the wire/flag/metrics name of the panel algorithm, "other"
// for a value outside the enum.
func (p PanelAlgorithm) String() string {
	if p < 0 || int(p) >= len(panelNames) || panelNames[p] == "" {
		return "other"
	}
	return panelNames[p]
}

// ParsePanel resolves a panel name; "" is the default, PanelCAQR.
func ParsePanel(name string) (PanelAlgorithm, error) {
	if name == "" {
		return PanelCAQR, nil
	}
	var known []string
	for p, n := range panelNames {
		if n == name {
			return PanelAlgorithm(p), nil
		}
		if n != "" {
			known = append(known, n)
		}
	}
	return PanelCAQR, fmt.Errorf("unknown panel %q (want one of %v)", name, known)
}

// Engine selects the simulated device the split GEMMs run on. Its String
// is the flag and wire name (fp16, tc-ec, bf16, fp32).
type Engine = tcsim.Kind

const (
	// EngineTC is the simulated fp16 TensorCore (the default): binary16
	// operands, float32 accumulation.
	EngineTC = tcsim.KindTC
	// EngineTCEC is the error-corrected TensorCore (Ootomo–Yokota, arXiv
	// 2203.03341; see tcsim.TCEC): fp32-grade accuracy (~2⁻²² vs ~2⁻¹¹) at
	// 3× the TC GEMM count while staying on the tensor-core simulant. The
	// exponent range is still fp16's, so the §3.5 overflow hazard — and the
	// column-scaling safeguard — apply unchanged.
	EngineTCEC = tcsim.KindTCEC
	// EngineBF16 is a TPU-style bfloat16 engine (§2.1 of the paper): ~10×
	// coarser resolution but the full float32 exponent range, so fp16-style
	// overflow cannot occur.
	EngineBF16 = tcsim.KindBF16
	// EngineFP32 runs the split GEMMs in plain float32 instead of a
	// simulated neural engine (the Figure 7 ablation).
	EngineFP32 = tcsim.KindFP32
)

// Config controls the RGSQRF factorization. The zero value is the paper's
// recommended configuration: neural engine enabled, CAQR panel, cutoff 128,
// column scaling on.
type Config struct {
	// Engine selects the simulated device the split GEMMs run on (zero value:
	// the fp16 TensorCore). The panel always runs in fp32, as the paper
	// recommends (Figure 7).
	Engine Engine
	// Panel selects the panel algorithm at the recursion cutoff.
	Panel PanelAlgorithm
	// Cutoff is the recursion cutoff width (0 = 128, the paper's choice).
	Cutoff int
	// ReOrthogonalize runs the "twice is enough" second pass, restoring
	// ‖I − QᵀQ‖ to working precision for ill-conditioned inputs.
	ReOrthogonalize bool
	// DisableColumnScaling turns off the Section 3.5 overflow safeguard.
	DisableColumnScaling bool
	// OnHazard selects the response to detected numerical hazards. The zero
	// value (HazardFail) returns a typed error as soon as a hazard would
	// corrupt the result; HazardFallback recovers instead — refactoring the
	// whole matrix under column scaling, then after a breakdown on the
	// sturdier panels, then on the later engines of the recovery order —
	// recording every step in the result's Hazards.
	OnHazard HazardPolicy
}

// gramPanel materializes the fp32 panel factorizer for c.
func (c Config) gramPanel() gram.Panel {
	switch c.Panel {
	case PanelHouseholder:
		return &gram.HouseholderPanel{}
	case PanelMGS:
		return gram.MGSPanel{}
	}
	return &gram.CAQRPanel{}
}

// sturdier returns the panels strictly more robust than p, in the order the
// HazardFallback ladder tries them after a breakdown: MGS, then Householder,
// which has no Gram-Schmidt breakdown mode and so nothing after it.
func (p PanelAlgorithm) sturdier() []PanelAlgorithm {
	switch p {
	case PanelHouseholder:
		return nil
	case PanelMGS:
		return []PanelAlgorithm{PanelHouseholder}
	}
	return []PanelAlgorithm{PanelMGS, PanelHouseholder}
}

// EngineStats reports the work the simulated neural engine performed during
// a factorization.
type EngineStats struct {
	GemmCalls int64
	Flops     int64
	// Overflows/Underflows count fp16 (or bfloat16) conversion events during
	// operand rounding. An overflow means an operand saturated to ±Inf — the
	// hazard the §3.5 column scaling prevents.
	Overflows  int64
	Underflows int64
}
