package tcqr

import (
	"fmt"

	"tcqr/internal/dense"
	"tcqr/internal/svd"
)

// LowRankApprox is a truncated SVD A ≈ U·diag(S)·Vᵀ computed by the QR-SVD
// algorithm of Section 3.4.
type LowRankApprox struct {
	// U has orthonormal columns (m×rank).
	U *Matrix32
	// S holds the leading singular values, descending.
	S []float32
	// V has orthonormal columns (n×rank).
	V *Matrix32
	// Rank is the truncation rank actually used (≤ requested).
	Rank int
	// Hazards lists numerical hazards detected (and, under HazardFallback,
	// recovered from) during the QR stage.
	Hazards []Hazard
	full    *svd.TallSVD
}

// LowRank computes the optimal rank-r approximation of a tall-skinny
// matrix a (m×n, m >= n, r <= n) via RGSQRF + Jacobi SVD of R + truncation.
// Per the paper, the fp16 roundoff of the QR stage is dwarfed by the
// truncation error, so no refinement is needed — this is the cheapest
// profitable use of the neural engine. a is either width, as for Factorize:
// a float64 a is approximated exactly as ToFloat32(a) would be. Input
// validation and hazard handling follow Factorize (typed errors under
// HazardFail, the recovery ladder under HazardFallback).
func LowRank[T float32 | float64](a *dense.Matrix[T], rank int, cfg Config) (*LowRankApprox, error) {
	if rank < 1 {
		return nil, fmt.Errorf("tcqr: rank %d < 1: %w", rank, ErrShape)
	}
	f, err := Factorize(a, cfg)
	if err != nil {
		return nil, err
	}
	if rank > a.Cols {
		rank = a.Cols
	}
	t, err := svd.QRSVDWithFactor(f.inner())
	if err != nil {
		return nil, err
	}
	return &LowRankApprox{
		U:       t.U.View(0, 0, t.U.Rows, rank).Clone(),
		S:       append([]float32(nil), t.S[:rank]...),
		V:       t.V.View(0, 0, t.V.Rows, rank).Clone(),
		Rank:    rank,
		Hazards: f.Hazards,
		full:    t,
	}, nil
}

// Error returns the relative approximation error ‖A − U·Σ·Vᵀ‖_F/‖A‖_F
// against the original matrix (the Table 4 metric), in float64.
func (l *LowRankApprox) Error(a *Matrix32) float64 {
	return l.full.TruncationError(a, l.Rank)
}
