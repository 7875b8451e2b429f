package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"tcqr/internal/hazard"
)

// RetryPolicy bounds how the server retries transient internal failures —
// recovered compute panics and injected faults — before surfacing a 500.
// Zero values select the defaults in brackets. The policy never retries
// client-class failures (bad input, unknown keys, numerical hazards under
// the fail policy) or backpressure rejections (queue full, draining,
// deadline): retrying those either cannot help or amplifies load.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first [3].
	// 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry [5ms].
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff [250ms].
	MaxDelay time.Duration
	// Multiplier grows the delay between retries [2.0].
	Multiplier float64
	// Jitter is the fraction of each delay randomized away, in [0, 1) [0.2]:
	// the actual sleep is delay * (1 - Jitter*u) for uniform u in [0, 1), so
	// synchronized failures do not retry in lockstep. Negative disables
	// jitter explicitly (used by determinism-sensitive tests).
	Jitter float64
}

// withDefaults fills zero fields with the production defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	} else if p.Jitter < 0 {
		p.Jitter = 0
	} else if p.Jitter >= 1 {
		p.Jitter = 0.99
	}
	return p
}

// backoff returns the sleep before retry number retry (1-based), before
// jitter: BaseDelay * Multiplier^(retry-1), capped at MaxDelay. The policy
// must already have defaults filled.
func (p RetryPolicy) backoff(retry int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return time.Duration(d)
}

// retryable reports whether err is a transient internal failure worth
// retrying. The classification rides on the wire mapping: exactly the
// errors that would surface as 500 internal — recovered panics, injected
// faults — are retryable. Everything with a more specific status (4xx
// client errors, 422 hazards, 429/503/504 backpressure) is terminal.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	return classifyError(err).status == http.StatusInternalServerError
}

// retrier executes functions under a RetryPolicy. The clock and RNG are
// injectable so tests and the fuzz target can drive arbitrary schedules
// deterministically without sleeping.
type retrier struct {
	policy RetryPolicy
	// sleep waits for d or until ctx is done, returning ctx.Err() in the
	// latter case. nil selects the real clock.
	sleep func(ctx context.Context, d time.Duration) error
	// rand returns a uniform draw in [0, 1) for jitter. nil selects a
	// cheap deterministic per-retrier stream.
	rand func() float64
	// onRetry, when set, observes every retry decision: the attempt number
	// just failed (1-based), the error, and the backoff about to be slept.
	onRetry func(attempt int, err error, backoff time.Duration)

	rngState uint64
}

func newRetrier(p RetryPolicy) *retrier {
	return &retrier{policy: p.withDefaults(), rngState: uint64(time.Now().UnixNano())}
}

func realSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *retrier) draw() float64 {
	if r.rand != nil {
		return r.rand()
	}
	// splitmix64, private to this retrier: jitter needs no global state.
	r.rngState += 0x9E3779B97F4A7C15
	z := r.rngState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(uint64(1)<<53)
}

// do runs fn up to MaxAttempts times, sleeping an exponentially growing,
// jittered backoff between attempts. Non-retryable errors return
// immediately. The backoff respects ctx: if the deadline would expire
// during (or before) the sleep, do stops and returns the last error — the
// injected latency of retrying never pushes a request past its deadline.
func (r *retrier) do(ctx context.Context, fn func() error) error {
	p := r.policy
	sleep := r.sleep
	if sleep == nil {
		sleep = realSleep
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || !retryable(err) || attempt >= p.MaxAttempts {
			return err
		}
		d := p.backoff(attempt)
		if p.Jitter > 0 {
			d = time.Duration(float64(d) * (1 - p.Jitter*r.draw()))
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
			// Not enough budget left to back off and try again.
			return err
		}
		if r.onRetry != nil {
			r.onRetry(attempt, err, d)
		}
		if serr := sleep(ctx, d); serr != nil {
			return err
		}
	}
}

// retryDo runs one compute stage under the server's retry policy. An attempt
// is never cut short on its own clock: a closure the pool has started keeps
// running after Pool.Do gives up on it, so a second attempt beside it would
// race it for the results both capture. Every retry is recorded in the
// request's hazard report (KindTransient) and the retry metrics; a transient
// failure that survives the whole policy bumps the exhausted counter on its
// way to becoming a 500.
func (s *Server) retryDo(ctx context.Context, rc *reqScope, stage string, fn func() error) error {
	rt := newRetrier(s.opts.Retry)
	rt.onRetry = func(attempt int, err error, d time.Duration) {
		s.metrics.retryAttempts.With(rc.endpoint).Inc()
		s.metrics.retryBackoff.ObserveDuration(d)
		rc.rep.Record(hazard.Event{
			Kind:   hazard.KindTransient,
			Stage:  stage,
			Detail: fmt.Sprintf("attempt %d: %v", attempt, err),
			Action: fmt.Sprintf("retry after %s", d.Round(10*time.Microsecond)),
		})
	}
	err := rt.do(ctx, fn)
	if err != nil && retryable(err) {
		s.metrics.retryExhausted.With(rc.endpoint).Inc()
	}
	return err
}
