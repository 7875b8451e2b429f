package blas

import (
	"math"
	"sync"
)

// scratchPool holds the float64 slabs the refinement and its accuracy check
// carve their working vectors from, so a solve allocates only what it
// returns. It keeps the *[]float64 it hands out, so a put needs no new slice
// header.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// poisonScratch makes GetScratch fill every slab it hands out with NaN. Only
// tests set it: a vector read before it is written then shows in the bits.
var poisonScratch bool

// GetScratch returns a pooled slab of n float64s. Its contents are
// undefined, so a caller writes each element before it reads it. Hand the
// slab back with PutScratch once nothing views it.
func GetScratch(n int) *[]float64 {
	s := scratchPool.Get().(*[]float64)
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	if poisonScratch {
		for i := range *s {
			(*s)[i] = math.NaN()
		}
	}
	return s
}

// PutScratch returns a slab from GetScratch to the pool.
func PutScratch(s *[]float64) { scratchPool.Put(s) }
