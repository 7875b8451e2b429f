package serve

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// breaker is the degraded-mode circuit: a run of consecutive internal
// failures (recovered panics, injected faults — anything that surfaces as a
// 500, one per failed request) trips the server into a cooldown during which
// it serves from the factorization cache only. Cache hits — solves by key,
// re-factorizes of resident matrices — proceed normally; anything that would
// need a cold factorization (or the uncached /v1/lowrank pipeline) is
// rejected with 503, a "degraded" error code, and a Retry-After covering the
// remaining cooldown. Any success resets the streak; the cooldown expires on the
// clock. This is what keeps a poisoned pool or a repeatedly tripping
// engine from grinding every request through doomed compute while still
// answering the traffic the cache can carry.
type breaker struct {
	threshold int64         // consecutive internal failures to trip; <= 0 disables
	cooldown  time.Duration // how long a trip lasts

	streak   atomic.Int64 // consecutive internal failures since last success
	until    atomic.Int64 // unix nanos the degraded window ends; 0 = healthy
	entered  atomic.Int64 // times degraded mode was entered
	rejected atomic.Int64 // requests rejected while degraded
}

// recordFailure notes one internal (500-class) response. It returns true
// when this failure trips the breaker into degraded mode.
func (b *breaker) recordFailure() bool {
	if b.threshold <= 0 {
		return false
	}
	streak := b.streak.Add(1)
	if streak < b.threshold {
		return false
	}
	if _, degraded := b.degraded(); degraded {
		return false
	}
	b.streak.Store(0)
	b.until.Store(time.Now().Add(b.cooldown).UnixNano())
	b.entered.Add(1)
	return true
}

// recordSuccess resets the failure streak. It does not end an active
// cooldown: a trip lasts its full window so clients see a stable
// Retry-After horizon.
func (b *breaker) recordSuccess() { b.streak.Store(0) }

// degraded reports whether the breaker is inside a cooldown, and how much
// of it remains.
func (b *breaker) degraded() (remaining time.Duration, ok bool) {
	u := b.until.Load()
	if u == 0 {
		return 0, false
	}
	rem := time.Until(time.Unix(0, u))
	if rem <= 0 {
		return 0, false
	}
	return rem, true
}

// degradedError builds the 503 rejection for cold compute during a
// cooldown, with Retry-After rounded up to whole seconds (minimum 1).
func degradedError(rem time.Duration) *apiError {
	secs := int(math.Ceil(rem.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return &apiError{
		status: 503, code: "degraded",
		msg: fmt.Sprintf("serve: degraded mode: cold factorizations suspended for %s (cache hits still served)",
			rem.Round(time.Millisecond)),
		retryAfter: secs,
	}
}

// degradedReject returns the rejection for cold compute while the breaker
// is tripped, or nil when the server is healthy.
func (s *Server) degradedReject() *apiError {
	rem, deg := s.brk.degraded()
	if !deg {
		return nil
	}
	s.brk.rejected.Add(1)
	return degradedError(rem)
}
