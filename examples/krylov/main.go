// Block orthogonalization of a Krylov basis: the Section 3.3 application
// of the paper. The columns of K = [v, Av, A²v, …] align exponentially
// fast, so K is catastrophically ill-conditioned — exactly the regime
// where a single Gram-Schmidt pass (even in full precision) loses
// orthogonality, and where the paper's "twice is enough"
// re-orthogonalization earns its keep: orthogonality is lost by the first
// pass and rescued by the second.
//
// Run with: go run ./examples/krylov
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"tcqr"
)

const (
	dim   = 2048 // operator size
	depth = 24   // Krylov subspace dimension
)

func main() {
	rng := rand.New(rand.NewSource(4))

	// A simple symmetric operator with a known spectrum: geometric decay
	// λ_i = 2·0.9^i, so the dominant eigenvalues are well separated and a
	// Krylov basis of it aligns with the dominant directions within a few
	// columns.
	eig := make([]float64, dim)
	for i := range eig {
		eig[i] = 2 * math.Pow(0.9, float64(i))
	}
	apply := func(dst, src []float64) {
		for i := range dst {
			dst[i] = eig[i] * src[i]
		}
	}

	// Krylov basis K(:, j) = A^j v.
	k := tcqr.NewMatrix(dim, depth)
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	for j := 0; j < depth; j++ {
		copy(k.Col(j), v)
		next := make([]float64, dim)
		apply(next, v)
		v = next
	}
	// Normalize columns so the device sees O(1) data (the exponential
	// growth of ‖A^j v‖ is a scaling, not a direction, issue).
	for j := 0; j < depth; j++ {
		col := k.Col(j)
		var n float64
		for _, x := range col {
			n += x * x
		}
		n = math.Sqrt(n)
		for i := range col {
			col[i] /= n
		}
	}
	k32 := tcqr.ToFloat32(k)

	// One pass vs twice-is-enough.
	single, err := tcqr.Factorize(k32, tcqr.Config{})
	if err != nil {
		log.Fatal(err)
	}
	reortho, err := tcqr.Factorize(k32, tcqr.Config{ReOrthogonalize: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("orthogonality ‖I−QᵀQ‖ of a %d-dim Krylov basis (dim %d operator):\n", depth, dim)
	fmt.Printf("  single RGSQRF pass       : %.2e\n", single.OrthogonalityError())
	fmt.Printf("  with re-orthogonalization: %.2e  (\"twice is enough\")\n", reortho.OrthogonalityError())
}
