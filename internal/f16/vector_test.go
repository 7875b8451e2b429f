package f16

import (
	"flag"
	"testing"

	"tcqr/internal/roundtest"
)

// exhaustive widens TestExhaustiveVectorMatchesScalar from its tier-1 stride
// of 2²² float32 patterns to all 2³² (about 20 s per kernel on two cores):
//
//	go test -run TestExhaustiveVectorMatchesScalar ./internal/f16 -exhaustive
var exhaustive = flag.Bool("exhaustive", false, "sweep all 2^32 float32 patterns in TestExhaustiveVectorMatchesScalar")

// sliceKernels pairs every dispatching entry point with its named scalar
// loop. On a host without AVX2+F16C the two sides are the same code and the
// comparisons hold trivially; the log line says which case ran.
var sliceKernels = []roundtest.Kernel{
	{Name: "round", Dispatch: roundtest.Uncounted(RoundInPlace), Scalar: roundtest.Uncounted(func(x []float32) { roundScalar(x, x) })},
	{Name: "round+count", Dispatch: RoundInPlaceCount, Scalar: roundCountScalar},
	{Name: "residual", Dispatch: roundtest.Uncounted(ResidualInPlace), Scalar: roundtest.Uncounted(residualScalar)},
}

// TestVectorMatchesScalarLayouts: every length 0…67 at every start offset
// 0…7, canaries on both sides, the hard-case table as input. RoundSlice
// into a separate destination joins the in-place entry points here.
func TestVectorMatchesScalarLayouts(t *testing.T) {
	t.Logf("vector kernels in use: %v", useVector)
	outOfPlace := roundtest.Kernel{
		Name: "round-slice",
		Dispatch: roundtest.Uncounted(func(x []float32) {
			src := append([]float32(nil), x...)
			RoundSlice(x, src)
		}),
		Scalar: sliceKernels[0].Scalar,
	}
	for _, k := range append([]roundtest.Kernel{outOfPlace}, sliceKernels...) {
		t.Run(k.Name, func(t *testing.T) { roundtest.Layouts(t, k) })
	}
}

// TestExhaustiveVectorMatchesScalar is the bit-identity contract of the
// vector kernels: values and counts equal to the scalar loops on every
// float32 pattern, NaN payloads included. Tier-1 runs the 2²²-pattern stride
// (every high half × 64 boundary low halves); -exhaustive runs all 2³².
func TestExhaustiveVectorMatchesScalar(t *testing.T) {
	t.Logf("vector kernels in use: %v; exhaustive: %v", useVector, *exhaustive)
	for _, k := range sliceKernels {
		t.Run(k.Name, func(t *testing.T) { roundtest.Sweep(t, k, *exhaustive) })
	}
}
