package serve

import (
	"strconv"
	"time"

	"tcqr/internal/metrics"
)

// stage is one pipeline stage a request's wall time is charged to. The set
// is closed, and its declaration order is the canonical order of the
// Server-Timing header and the request log's stages attribute.
type stage uint8

const (
	// stageDecode is the body read plus the frame or JSON decode; stageKey is
	// the content hash of a request that carries its matrix plus, on a hit,
	// the comparison of that matrix with the entry's.
	stageDecode stage = iota
	stageKey
	stageQueue
	stageFactorize
	stageSolve
	stageEncode
	stageUpdate
	stageForward
	numStages
)

var stageNames = [numStages]string{"decode", "key", "queue", "factorize", "solve", "encode", "update", "forward"}

// stageClock is one request's stage breakdown: a duration per stage, summed
// when a stage is charged twice (a solve that factored waits in the queue
// two times). It is written only on the request's own goroutine — work that
// runs on a pool worker hands its duration back (reqScope.onPool) — so it
// needs no lock.
type stageClock struct {
	d [numStages]time.Duration
	// charged has bit st set once stage st was charged: a stage that took
	// zero time is still reported, one that never ran is not.
	charged uint16
}

func (c *stageClock) add(st stage, d time.Duration) {
	c.d[st] += d
	c.charged |= 1 << st
}

// header renders the breakdown in the standard Server-Timing format, one
// metric per charged stage in milliseconds: "queue;dur=2.301, solve;dur=0.912".
// Empty when nothing was charged.
func (c *stageClock) header() string {
	var buf [numStages * 24]byte
	b := buf[:0]
	for st, d := range c.d {
		if c.charged&(1<<st) == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ", "...)
		}
		b = append(b, stageNames[st]...)
		b = append(b, ";dur="...)
		b = strconv.AppendFloat(b, float64(d.Nanoseconds())/1e6, 'f', 3, 64)
	}
	return string(b)
}

// observe folds the breakdown into the per-stage latency histograms, one
// observation per charged stage.
func (c *stageClock) observe(h *metrics.HistogramVec) {
	for st, d := range c.d {
		if c.charged&(1<<st) != 0 {
			h.With(stageNames[st]).ObserveDuration(d)
		}
	}
}

// onPool runs fn on a pool worker and returns how long it ran, charging the
// queue wait on the way. The wait ends at the request's deadline or when its
// client goes away. When the pool gives up first (a deadline while fn is
// already running) fn still finishes on the worker, which is why the
// durations travel back from the worker rather than being charged from
// inside fn.
func (rc *reqScope) onPool(fn func()) (time.Duration, error) {
	wait, ran, err := rc.s.pool.run(rc.ctx.Done(), rc.deadline, fn)
	if err != nil {
		return 0, err
	}
	rc.stages.add(stageQueue, wait)
	return ran, nil
}
