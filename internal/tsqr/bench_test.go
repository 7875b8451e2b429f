package tsqr

import (
	"testing"

	"tcqr/internal/rgs"
)

// The TSQR benchmarks report flops through SetBytes (the repository-wide
// convention: "MB/s" is Mflop/s), using the serial RGSQRF flop count —
// TSQR performs the same ~2mn² leading-order work plus the O(n³·blocks)
// tree, so rates are directly comparable across the three benchmarks.
//
// Sweep these with -cpu 1,4,8. On a single-core host the
// parallel rows cannot beat the serial ones (they oversubscribe one core);
// the acceptance gate there is bit-identical factors and zero regression
// of the serial path, per ISSUE 7.

const benchM, benchN = 4096, 256

// BenchmarkTSQRFactorize4096x256 is the parallel pipeline at the default
// worker bound (GOMAXPROCS).
func BenchmarkTSQRFactorize4096x256(b *testing.B) {
	benchTSQR(b, 0)
}

// BenchmarkTSQRWorkers1Factorize4096x256 is the same canonical partition
// scheduled on one worker — the bit-identical sequential baseline that
// isolates scheduling overhead from numerical work.
func BenchmarkTSQRWorkers1Factorize4096x256(b *testing.B) {
	benchTSQR(b, 1)
}

func benchTSQR(b *testing.B, workers int) {
	a := randTall(42, benchM, benchN)
	b.SetBytes(rgs.FlopCount(benchM, benchN, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(a, Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTSQRSerialRGSBaseline4096x256 is the serial path cold
// /v1/factorize takes today (rgs.Factor on the TensorCore engine) — the
// number the parallel pipeline must beat on a multicore host.
func BenchmarkTSQRSerialRGSBaseline4096x256(b *testing.B) {
	a := randTall(42, benchM, benchN)
	b.SetBytes(rgs.FlopCount(benchM, benchN, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rgs.Factor(a, rgs.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
