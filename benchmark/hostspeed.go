package main

import (
	"sort"
	"time"
)

// Host-speed normalisation.
//
// The reference host is a 2-vCPU guest whose speed drifts with its
// neighbours: over a quarter of an hour the same lls-dense operation took
// between 118 and 172 ms, and CPU time per operation moved with it, so the
// drift is not scheduling but slower cores and a slower memory system. Ten
// identical runs spread by 17–24 % on every timing metric, twice the bound a
// timing metric may carry. A run cannot outlast the drift (minutes), so the
// benchmark measures it instead: before and after every round, and around
// every set-up, it times a fixed streaming kernel of its own — a dot product
// over 16 MB that shares no code with the library — and expresses every time
// in units of the reference host's quiet speed:
//
//	reported time = measured time × (stream rate now / streamRefGBs)
//
// Interleaved with lls-dense operations for nine minutes, the kernel tracked
// the drift to within 3.4 % (quartile distance of operation time over kernel
// time per 12 s window) where the raw operation time spread by 18 %; a scalar
// compute-bound kernel tracked it far worse (its own time moved by 78 % while
// the operation's moved by 37 %), and a fit of both put all weight on the
// stream. The raw medians and the speed of every round are printed beside the
// normalised metrics, and host.stream_gbs is a per-layer metric: when it
// moves, the host moved, not the commit.

const (
	streamLen = 1 << 20 // float64 elements per array: two arrays, 16 MB
	// streamRefGBs is the kernel's rate on the reference host when quiet.
	// It only fixes the unit of the reported times; it never needs to match
	// another host.
	streamRefGBs = 19.0
	// streamPasses per burst; a burst takes about 40 ms and reports the
	// median pass.
	streamPasses = 24
)

var streamX, streamY [streamLen]float64

func init() {
	for i := range streamX {
		streamX[i], streamY[i] = float64(i%7)-3, float64(i%5)-2
	}
}

// hostSpeed times a burst of the streaming kernel and returns the host's
// current speed as a share of the reference speed (1 = reference, below 1 =
// slower now) together with the median rate in GB/s.
func hostSpeed() (speed, gbs float64) {
	times := make([]float64, streamPasses)
	for p := range times {
		t0 := time.Now()
		var s float64
		for i := range streamX {
			s += streamX[i] * streamY[i]
		}
		times[p] = time.Since(t0).Seconds()
		sink += s
	}
	sort.Float64s(times)
	gbs = 2 * 8 * streamLen / percentile(times, 50) / 1e9
	return gbs / streamRefGBs, gbs
}
