package blas

import (
	"math"
	"slices"
)

// scratchSlabs holds the float64 slabs the refinement and its accuracy check
// carve their working vectors from, so a solve allocates only what it
// returns. It keeps the *[]float64 it hands out, so a put needs no new slice
// header.
var scratchSlabs FreeList[[]float64]

// poisonScratch makes GetScratch fill every slab it hands out with NaN. Only
// tests set it: a vector read before it is written then shows in the bits.
var poisonScratch bool

// GetScratch returns a pooled slab of n float64s. Its contents are
// undefined, so a caller writes each element before it reads it. Hand the
// slab back with PutScratch once nothing views it.
func GetScratch(n int) *[]float64 {
	s := scratchSlabs.Get()
	*s = slices.Grow((*s)[:0], n)[:n]
	if poisonScratch {
		for i := range *s {
			(*s)[i] = math.NaN()
		}
	}
	return s
}

// PutScratch returns a slab from GetScratch to the free list.
func PutScratch(s *[]float64) { scratchSlabs.Put(s) }
