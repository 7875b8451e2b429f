package blas

import "testing"

// PoisonScratch makes GetScratch fill every slab it hands out with NaN until
// tb ends.
func PoisonScratch(tb testing.TB) {
	poisonScratch = true
	tb.Cleanup(func() { poisonScratch = false })
}
