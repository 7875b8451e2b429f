package tcqr

import (
	"fmt"
	"math/rand"

	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/svd"
)

// RandomizedLowRank computes a rank-r approximation of a by the randomized
// range finder (Halko-Martinsson-Tropp), with the two large GEMMs — the
// sketch Y = A·Ω and the projection B = Qᵀ·A — running on the simulated
// neural engine. It extends LowRank beyond tall-skinny matrices: a may be
// any shape with min(m, n) > rank + oversample.
//
// The pipeline is the paper's conclusion in miniature ("more ways to use
// neural engines beside the matrix multiplication interface"): the engine
// does the O(mn·k) work, and the paper's own orthogonalization safeguard
// (RGSQRF with re-orthogonalization) makes the sketched basis numerically
// orthonormal.
//
// powerIters > 0 applies subspace iterations (Y ← A·Aᵀ·Y) to sharpen the
// spectrum for slowly decaying singular values; each iteration adds two
// engine GEMMs. rng supplies the Gaussian test matrix (deterministic for a
// seeded source).
//
// Unlike Factorize, the raw sketch GEMM has no column-scaling safeguard:
// inputs whose elements exceed the binary16 range (±65504) must be scaled
// by the caller before sketching, or run with EngineBF16 or EngineFP32.
func RandomizedLowRank(a *Matrix32, rank, oversample, powerIters int, rng *rand.Rand, cfg Config) (*LowRankApprox, error) {
	m, n := a.Rows, a.Cols
	if rank < 1 {
		return nil, fmt.Errorf("tcqr: rank %d < 1", rank)
	}
	if oversample < 0 {
		oversample = 8
	}
	k := rank + oversample
	if k > m || k > n {
		return nil, fmt.Errorf("tcqr: rank+oversample = %d exceeds min dimension of %dx%d", k, m, n)
	}

	engine := cfg.Engine.New(false)

	// Sketch: Y = A·Ω with a Gaussian Ω (n×k).
	omega := dense.New[float32](n, k)
	for i := range omega.Data {
		omega.Data[i] = float32(rng.NormFloat64())
	}
	y := dense.New[float32](m, k)
	engine.Gemm(blas.NoTrans, blas.NoTrans, 1, a, omega, 0, y)

	orthonormalize := func(x *Matrix32) (*Matrix32, error) {
		c := cfg
		c.ReOrthogonalize = true
		f, err := Factorize(x, c)
		if err != nil {
			return nil, err
		}
		return f.Q, nil
	}

	// Optional subspace iterations with re-orthogonalization between
	// applications (the numerically stable variant).
	for it := 0; it < powerIters; it++ {
		q, err := orthonormalize(y)
		if err != nil {
			return nil, err
		}
		z := dense.New[float32](n, k)
		engine.Gemm(blas.Trans, blas.NoTrans, 1, a, q, 0, z)
		qz, err := orthonormalize(z)
		if err != nil {
			return nil, err
		}
		engine.Gemm(blas.NoTrans, blas.NoTrans, 1, a, qz, 0, y)
	}

	q, err := orthonormalize(y)
	if err != nil {
		return nil, err
	}

	// Project: B = Qᵀ·A (k×n), then a small exact SVD of Bᵀ (n×k, n >= k).
	bt := dense.New[float32](n, k)
	engine.Gemm(blas.Trans, blas.NoTrans, 1, a, q, 0, bt) // Bᵀ = Aᵀ·Q
	btSVD, err := svd.Jacobi(bt, 0)
	if err != nil {
		return nil, err
	}
	// Bᵀ = Ũ·Σ·Ṽᵀ ⇒ B = Ṽ·Σ·Ũᵀ ⇒ A ≈ (Q·Ṽ)·Σ·Ũᵀ.
	u := dense.New[float32](m, k)
	blas.Gemm(blas.NoTrans, blas.NoTrans, 1, q, btSVD.V, 0, u)

	full := &svd.TallSVD{U: u, S: btSVD.S, V: btSVD.U}
	return &LowRankApprox{
		U:    u.View(0, 0, m, rank).Clone(),
		S:    append([]float32(nil), btSVD.S[:rank]...),
		V:    btSVD.U.View(0, 0, n, rank).Clone(),
		Rank: rank,
		full: full,
	}, nil
}

// ConditionNumber estimates κ₂(A) = σ₁/σ_n of a tall matrix through the
// QR-SVD pipeline. The estimate inherits the half-precision engine's
// accuracy (a few times 1e-3 relative), which is ample for deciding
// whether refinement or re-orthogonalization safeguards are needed.
func ConditionNumber(a *Matrix32, cfg Config) (float64, error) {
	s, err := SingularValues(a, cfg)
	if err != nil {
		return 0, err
	}
	n := len(s)
	if n == 0 {
		return 0, fmt.Errorf("tcqr: empty matrix")
	}
	if s[n-1] <= 0 {
		return 0, fmt.Errorf("tcqr: matrix is numerically rank deficient (σ_min = %g)", s[n-1])
	}
	return float64(s[0]) / float64(s[n-1]), nil
}
