// Low rank approximation: compress a tall-skinny data matrix with the
// truncated QR-SVD of Section 3.4 of the paper. The data is a synthetic
// sensor panel — a few smooth spatial modes modulated over many time
// steps, plus noise — so its spectrum decays fast and aggressive
// truncation loses almost nothing.
//
// Per the paper (Table 4), the half-precision QR stage does not degrade
// the approximation: the truncation error dominates the fp16 roundoff, so
// the neural engine's speed comes for free here.
//
// Run with: go run ./examples/lowrank
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"tcqr"
)

const (
	timeSteps = 8192 // rows: one per time step
	sensors   = 128  // columns: one per sensor
	modes     = 5    // true latent modes
)

func main() {
	rng := rand.New(rand.NewSource(3))

	// Data = Σ_k amplitude_k(t) · pattern_k(sensor) + noise.
	a := tcqr.NewMatrix32(timeSteps, sensors)
	for k := 0; k < modes; k++ {
		freq := float64(k + 1)
		scale := math.Pow(0.4, float64(k)) // decaying mode energies
		phase := rng.Float64() * 2 * math.Pi
		for i := 0; i < timeSteps; i++ {
			amp := scale * math.Sin(2*math.Pi*freq*float64(i)/float64(timeSteps)+phase)
			for j := 0; j < sensors; j++ {
				pattern := math.Cos(math.Pi * freq * float64(j) / float64(sensors))
				a.Set(i, j, a.At(i, j)+float32(amp*pattern))
			}
		}
	}
	for i := range a.Data {
		a.Data[i] += float32(1e-3 * rng.NormFloat64())
	}

	fmt.Printf("compressing a %dx%d sensor panel (%d true modes + noise)\n\n", timeSteps, sensors, modes)
	fmt.Printf("%-6s  %-12s  %-12s\n", "rank", "rel. error", "compression")
	for _, rank := range []int{1, 2, 4, 8, 16} {
		lr, err := tcqr.LowRank(a, rank, tcqr.Config{})
		if err != nil {
			log.Fatal(err)
		}
		original := timeSteps * sensors
		compressed := rank * (timeSteps + sensors + 1)
		fmt.Printf("%-6d  %-12.3e  %5.1fx\n", rank, lr.Error(a), float64(original)/float64(compressed))
	}

	// The spectrum itself, the full-rank approximation's S, shows the five
	// modes standing above the noise floor.
	full, err := tcqr.LowRank(a, a.Cols, tcqr.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nleading singular values: ")
	for i := 0; i < 8; i++ {
		fmt.Printf("%.3g ", full.S[i])
	}
	fmt.Println("...")
}
