//go:build amd64

package f16

import "tcqr/internal/cpufeat"

// useVector selects the AVX2/F16C kernels of round_amd64.s, decided once at
// init. Nothing overrides it: the kernels are bit-identical to the scalar
// loops on all 2³² inputs (TestExhaustiveVectorMatchesScalar), so the choice
// changes speed and nothing else.
var useVector = cpufeat.AVX2 && cpufeat.F16C

//go:noescape
func roundVec(dst, src *float32, n int)

//go:noescape
func roundCountVec(x *float32, n int) (overflow, underflow int64)

//go:noescape
func residualVec(x *float32, n int)
