package bf16

import (
	"testing"

	"tcqr/internal/roundtest"
)

// BenchmarkRoundInPlace: {round, round+count} × {vector, scalar} at the two
// packed-slab sizes the GEMM hooks (the benchmark probe's bf16.round_gelem_s
// streams from memory instead).
func BenchmarkRoundInPlace(b *testing.B) { roundtest.Bench(b, sliceKernels, useVector) }
