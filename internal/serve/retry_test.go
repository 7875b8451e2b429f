package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"tcqr"
)

// --- RetryPolicy unit tests ------------------------------------------------

func TestRetryPolicyBackoffGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 45 * time.Millisecond, Multiplier: 2}.withDefaults()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		45 * time.Millisecond, 45 * time.Millisecond}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{fmt.Errorf("serve: panic in pool task: boom"), true}, // generic -> 500 internal
		{ErrQueueFull, false},
		{ErrDraining, false},
		{ErrDeadline, false},
		{errBadInput("nope"), false},
		{tcqr.ErrShape, false},
		{tcqr.ErrBreakdown, false}, // 422: the data is the problem, not the server
		{degradedError(time.Second), false},
	}
	for _, c := range cases {
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// fakeRetrier builds a retrier whose sleeps are recorded instead of slept.
func fakeRetrier(p RetryPolicy) (*retrier, *[]time.Duration) {
	slept := &[]time.Duration{}
	rt := newRetrier(p)
	rt.sleep = func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return ctx.Err()
	}
	return rt, slept
}

func TestRetrierRetriesTransientThenSucceeds(t *testing.T) {
	rt, slept := fakeRetrier(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Jitter: -1})
	calls := 0
	err := rt.do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("do: err=%v calls=%d, want nil err after 3 calls", err, calls)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if len(*slept) != len(want) || (*slept)[0] != want[0] || (*slept)[1] != want[1] {
		t.Fatalf("slept %v, want %v", *slept, want)
	}
}

func TestRetrierNeverRetriesNonRetryable(t *testing.T) {
	rt, slept := fakeRetrier(RetryPolicy{MaxAttempts: 5})
	calls := 0
	err := rt.do(context.Background(), func() error {
		calls++
		return errBadInput("client error")
	})
	if calls != 1 || len(*slept) != 0 {
		t.Fatalf("calls=%d slept=%v, want exactly 1 call and no sleep", calls, *slept)
	}
	var ae *apiError
	if !errors.As(err, &ae) || ae.code != "bad_input" {
		t.Fatalf("err = %v, want the original bad_input error", err)
	}
}

func TestRetrierExhaustsAttempts(t *testing.T) {
	rt, _ := fakeRetrier(RetryPolicy{MaxAttempts: 3, Jitter: -1})
	calls, retries := 0, 0
	rt.onRetry = func(attempt int, err error, d time.Duration) { retries++ }
	err := rt.do(context.Background(), func() error {
		calls++
		return errors.New("always down")
	})
	if calls != 3 || retries != 2 || err == nil {
		t.Fatalf("calls=%d retries=%d err=%v, want 3 calls, 2 retries, final error", calls, retries, err)
	}
}

func TestRetrierBackoffRespectsDeadline(t *testing.T) {
	// 5ms of budget cannot fit a 50ms backoff: do must return the error
	// immediately instead of sleeping past the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	rt, slept := fakeRetrier(RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, Jitter: -1})
	calls := 0
	err := rt.do(ctx, func() error { calls++; return errors.New("transient") })
	if calls != 1 || len(*slept) != 0 || err == nil {
		t.Fatalf("calls=%d slept=%v err=%v, want 1 call, no sleep, the error", calls, *slept, err)
	}
}

// --- FuzzRetryPolicy -------------------------------------------------------

// FuzzRetryPolicy drives arbitrary retry configurations and failure shapes
// through the retrier and asserts the three safety invariants: the attempt
// count never exceeds the policy bound, non-retryable (4xx-class) errors are
// never retried, and no backoff is ever scheduled that the request's
// deadline could not absorb.
func FuzzRetryPolicy(f *testing.F) {
	f.Add(3, 5, 250, 200, 20, uint8(2), 1000, true)
	f.Add(1, 0, 0, 0, 0, uint8(0), 50, true)
	f.Add(10, 1, 2, 150, 99, uint8(255), 3000, false)
	f.Add(0, -5, -1, -100, -50, uint8(7), 1, true)
	f.Fuzz(func(t *testing.T, maxAttempts, baseMS, maxMS, multPct, jitterPct int, failures uint8, deadlineMS int, transient bool) {
		if deadlineMS < 1 {
			deadlineMS = 1
		} else if deadlineMS > 5000 {
			deadlineMS = 5000
		}
		p := RetryPolicy{
			MaxAttempts: maxAttempts % 32,
			BaseDelay:   time.Duration(baseMS%1000) * time.Millisecond,
			MaxDelay:    time.Duration(maxMS%1000) * time.Millisecond,
			Multiplier:  float64(multPct%400) / 100,
			Jitter:      float64(jitterPct%200) / 100,
		}
		bound := p.withDefaults().MaxAttempts
		maxDelay := p.withDefaults().MaxDelay
		budget := time.Duration(deadlineMS) * time.Millisecond

		ctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		deadline, _ := ctx.Deadline()

		failErr := error(errBadInput("terminal"))
		if transient {
			failErr = errors.New("transient")
		}
		calls := 0
		rt := newRetrier(p)
		rt.rand = func() float64 { return 0.5 }
		rt.sleep = func(ctx context.Context, d time.Duration) error {
			if d > maxDelay {
				t.Fatalf("slept %v > MaxDelay %v", d, maxDelay)
			}
			// The decision to sleep d was taken while d fit the remaining
			// budget; 10ms of slack absorbs the wall-clock drift between that
			// check and this call.
			if rem := time.Until(deadline); d > rem+10*time.Millisecond {
				t.Fatalf("scheduled backoff %v exceeds remaining deadline budget %v", d, rem)
			}
			return ctx.Err()
		}
		_ = rt.do(ctx, func() error {
			calls++
			if calls <= int(failures) {
				return failErr
			}
			return nil
		})

		if calls > bound {
			t.Fatalf("fn called %d times, policy bound is %d", calls, bound)
		}
		if calls < 1 {
			t.Fatalf("fn never called")
		}
		if !transient && failures > 0 && calls != 1 {
			t.Fatalf("non-retryable error retried: %d calls", calls)
		}
	})
}
