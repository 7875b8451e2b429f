// Package serve is the factorization-serving subsystem: the engine-agnostic
// core behind the tcqrd daemon. It turns the library's "factor once, apply
// many times" economics (Algorithm 3 reuses one QR across every right-hand
// side) into a concurrent service:
//
//   - a content-hash-keyed LRU factorization cache with singleflight
//     deduplication, so concurrent solves against the same matrix share one
//     Factorize call (cache.go);
//   - a bounded worker pool with admission control: queue-depth limit,
//     per-request deadlines, typed backpressure errors, graceful drain
//     (pool.go);
//   - HTTP handlers for /v1/factorize, /v1/solve, /v1/update, /v1/lowrank,
//     /healthz, /statz and /metrics: one request pipeline behind a JSON and a binary-frame codec (server.go, codec.go,
//     wire.go, stages.go), a handler file per endpoint family;
//   - a write-behind disk spill tier with restart rewarm (spill.go) and the
//     cluster routing seam (cluster.go).
//
// The package holds no HTTP listener of its own; cmd/tcqrd wires the
// Handler into net/http and owns the process lifecycle.
package serve

import (
	"tcqr"
)

// Backend abstracts the five library calls the serving core makes, so tests
// and benchmarks can count, delay, or fake them. The singleflight test, for
// example, asserts that N concurrent same-matrix factorizes reach Factorize
// exactly once.
type Backend interface {
	// Factorize computes the RGSQRF factorization (tcqr.Factorize) of the
	// request's float64 matrix, which it factors as its float32 narrowing.
	Factorize(a *tcqr.Matrix, cfg tcqr.Config) (*tcqr.Factorization, error)
	// SolveWithFactor solves one right-hand side against a cached
	// factorization (tcqr.SolveLeastSquaresWithFactor).
	SolveWithFactor(f *tcqr.Factorization, a *tcqr.Matrix, b []float64, opts tcqr.SolveOptions) (*tcqr.LeastSquaresResult, error)
	// LowRank computes a truncated QR-SVD approximation (tcqr.LowRank).
	LowRank(a *tcqr.Matrix, rank int, cfg tcqr.Config) (*tcqr.LowRankApprox, error)
	// UpdateAppendRows appends a row block to a cached factorization, the
	// append half of /v1/update (tcqr.UpdateAppendRows).
	UpdateAppendRows(f *tcqr.Factorization, v *tcqr.Matrix32, cfg tcqr.Config) (*tcqr.Factorization, error)
	// UpdateRemoveRows downdates the trailing k rows (tcqr.UpdateRemoveRows).
	UpdateRemoveRows(f *tcqr.Factorization, k int, cfg tcqr.Config) (*tcqr.Factorization, error)
}

// LibraryBackend routes every call straight to package tcqr; it is the
// production backend. Every cold factorization is tcqr.Factorize under the
// request's Config, so a cache key names one factor on every node.
type LibraryBackend struct{}

// Factorize implements Backend.
func (LibraryBackend) Factorize(a *tcqr.Matrix, cfg tcqr.Config) (*tcqr.Factorization, error) {
	return tcqr.Factorize(a, cfg)
}

// SolveWithFactor implements Backend.
func (LibraryBackend) SolveWithFactor(f *tcqr.Factorization, a *tcqr.Matrix, b []float64, opts tcqr.SolveOptions) (*tcqr.LeastSquaresResult, error) {
	return tcqr.SolveLeastSquaresWithFactor(f, a, b, opts)
}

// LowRank implements Backend.
func (LibraryBackend) LowRank(a *tcqr.Matrix, rank int, cfg tcqr.Config) (*tcqr.LowRankApprox, error) {
	return tcqr.LowRank(a, rank, cfg)
}

// UpdateAppendRows implements Backend.
func (LibraryBackend) UpdateAppendRows(f *tcqr.Factorization, v *tcqr.Matrix32, cfg tcqr.Config) (*tcqr.Factorization, error) {
	return tcqr.UpdateAppendRows(f, v, cfg)
}

// UpdateRemoveRows implements Backend.
func (LibraryBackend) UpdateRemoveRows(f *tcqr.Factorization, k int, cfg tcqr.Config) (*tcqr.Factorization, error) {
	return tcqr.UpdateRemoveRows(f, k, cfg)
}
