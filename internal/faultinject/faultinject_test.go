package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// arm installs spec for the duration of the test.
func arm(t *testing.T, spec string) {
	t.Helper()
	if err := Arm(spec); err != nil {
		t.Fatalf("Arm(%q): %v", spec, err)
	}
	t.Cleanup(Disarm)
}

func TestDisarmedIsNoOp(t *testing.T) {
	Disarm()
	if Sites() != nil {
		t.Fatal("a schedule is installed after Disarm")
	}
	if err := Fire("any.site"); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
	ran := false
	Corrupt("any.site", func() { ran = true })
	if ran {
		t.Fatal("disarmed Corrupt ran its hook")
	}
	if Events() != nil {
		t.Fatal("disarmed accessors returned non-zero state")
	}
}

func TestErrorActionWrapsSentinel(t *testing.T) {
	arm(t, "seed=1;a.b.c=error(boom)")
	err := Fire("a.b.c")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "a.b.c") {
		t.Fatalf("error %q missing message or site", err)
	}
	if err := Fire("other.site"); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
}

func TestPanicAction(t *testing.T) {
	arm(t, "x=panic(kaboom)")
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "kaboom") {
			t.Fatalf("recover() = %v, want injected panic", r)
		}
	}()
	_ = Fire("x")
	t.Fatal("Fire did not panic")
}

func TestDelayAction(t *testing.T) {
	arm(t, "x=delay(30ms)")
	start := time.Now()
	if err := Fire("x"); err != nil {
		t.Fatalf("delay Fire returned %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay slept %v, want >= 30ms", d)
	}
}

func TestCorruptActionRunsHookOnlyAtCorruptSites(t *testing.T) {
	arm(t, "x=corrupt")
	ran := 0
	Corrupt("x", func() { ran++ })
	if ran != 1 {
		t.Fatalf("hook ran %d times, want 1", ran)
	}
	// Fire at a corrupt site is a no-op (no hook to run).
	if err := Fire("x"); err != nil {
		t.Fatalf("Fire at corrupt site returned %v", err)
	}
	// Corrupt at an error site suppresses the error (no channel for it).
	arm(t, "y=error")
	Corrupt("y", func() { t.Fatal("error rule ran corruption hook") })
}

func TestEveryNthTrigger(t *testing.T) {
	arm(t, "x=error@every=3")
	var fired []int
	for i := 1; i <= 10; i++ {
		if Fire("x") != nil {
			fired = append(fired, i)
		}
	}
	want := []int{3, 6, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired on hits %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on hits %v, want %v", fired, want)
		}
	}
}

func TestOnceTrigger(t *testing.T) {
	arm(t, "x=error@once=4")
	var fired []int
	for i := 1; i <= 10; i++ {
		if Fire("x") != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 1 || fired[0] != 4 {
		t.Fatalf("once=4 fired on hits %v, want exactly [4]", fired)
	}
}

func TestCountCap(t *testing.T) {
	arm(t, "x=error@count=2")
	n := 0
	for i := 0; i < 10; i++ {
		if Fire("x") != nil {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("count=2 fired %d times, want 2", n)
	}
	if ev := Events(); len(ev) != 2 || ev[0].Site != "x" || ev[1].Site != "x" {
		t.Fatalf("Events() = %+v, want two firings of x", ev)
	}
}

func TestProbabilityIsSeedDeterministicAndPlausible(t *testing.T) {
	const hits = 2000
	run := func(seed uint64) []int64 {
		if err := Arm(fmt.Sprintf("seed=%d;x=error@p=0.25", seed)); err != nil {
			t.Fatal(err)
		}
		defer Disarm()
		var fired []int64
		for i := 0; i < hits; i++ {
			if Fire("x") != nil {
				fired = append(fired, int64(i))
			}
		}
		return fired
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("same seed fired %d vs %d times", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at firing %d: hit %d vs %d", i, a[i], b[i])
		}
	}
	// Plausible rate: 0.25 ± 5 percentage points over 2000 draws.
	if rate := float64(len(a)) / hits; rate < 0.20 || rate > 0.30 {
		t.Fatalf("p=0.25 fired at rate %.3f over %d hits", rate, hits)
	}
	// A different seed must give a different firing pattern.
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical firing patterns")
	}
}

// TestSameSeedReproducesSameEventSequence is the determinism acceptance
// test: the same spec (seed included) driven through the same per-site hit
// sequence produces the same sequenced event log, site by site, action by
// action.
func TestSameSeedReproducesSameEventSequence(t *testing.T) {
	const spec = "seed=42;a.one=error@p=0.3;b.two=delay(1us)@every=3;c.three=panic@once=5;d.four=corrupt@p=0.5,count=7"
	drive := func() []Event {
		if err := Arm(spec); err != nil {
			t.Fatal(err)
		}
		defer Disarm()
		for i := 0; i < 50; i++ {
			_ = Fire("a.one")
			_ = Fire("b.two")
			func() {
				defer func() { _ = recover() }()
				_ = Fire("c.three")
			}()
			Corrupt("d.four", func() {})
		}
		return Events()
	}
	first, second := drive(), drive()
	if len(first) == 0 {
		t.Fatal("schedule fired no events")
	}
	if len(first) != len(second) {
		t.Fatalf("run lengths differ: %d vs %d events", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("event %d differs: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestEventLogAndObserver(t *testing.T) {
	var mu sync.Mutex
	var observed []Event
	unregister := RegisterObserver(func(e Event) {
		mu.Lock()
		observed = append(observed, e)
		mu.Unlock()
	})
	defer unregister()

	arm(t, "x=error@every=2")
	for i := 0; i < 6; i++ {
		_ = Fire("x")
	}
	evs := Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i+1) || e.Site != "x" || e.Action != ActError || e.Hit != int64((i+1)*2) {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
	mu.Lock()
	n := len(observed)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("observer saw %d events, want 3", n)
	}
	unregister()
	unregister() // idempotent
	_ = Fire("x")
	_ = Fire("x")
	mu.Lock()
	n = len(observed)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("observer saw %d events after unregister, want 3", n)
	}
}

func TestSitesSorted(t *testing.T) {
	arm(t, "z.z=error;a.a=panic;m.m=delay(1ms)")
	got := Sites()
	want := []string{"a.a", "m.m", "z.z"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Sites() = %v, want %v", got, want)
	}
}

func TestConcurrentFireIsSafe(t *testing.T) {
	arm(t, "x=error@p=0.5;y=delay(1us)@every=2")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = Fire("x")
				_ = Fire("y")
			}
		}()
	}
	wg.Wait()
	if len(Events()) == 0 {
		t.Fatal("concurrent schedule fired nothing")
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"seed=42",                // no sites
		"seed=nope;x=error",      // bad seed
		"x",                      // not site=rule
		"=error",                 // empty site
		"x=explode",              // unknown action
		"x=delay",                // delay without duration
		"x=delay(fast)",          // bad duration
		"x=delay(-1ms)",          // negative duration
		"x=error@",               // empty trigger
		"x=error@p",              // not key=value
		"x=error@p=0",            // p out of range
		"x=error@p=1.5",          // p out of range
		"x=error@every=0",        // every < 1
		"x=error@once=0",         // once < 1
		"x=error@count=0",        // count < 1
		"x=error@wat=1",          // unknown trigger
		"x=error@once=1,every=2", // mutually exclusive
		"x=error;x=panic",        // duplicate site
		"x=error(oops",           // unclosed argument
	}
	for _, spec := range bad {
		if err := Arm(spec); err == nil {
			Disarm()
			t.Errorf("Arm(%q) accepted a bad spec", spec)
		}
	}
	if Sites() != nil {
		t.Fatal("a failed Arm left a schedule installed")
	}
}

func TestArmReplacesPreviousSchedule(t *testing.T) {
	arm(t, "x=error")
	if Fire("x") == nil {
		t.Fatal("first schedule not armed")
	}
	arm(t, "y=error")
	if Fire("x") != nil {
		t.Fatal("old site still armed after re-Arm")
	}
	if Fire("y") == nil {
		t.Fatal("new site not armed")
	}
	// The event log belongs to the new registry: the x firing is gone.
	if evs := Events(); len(evs) != 1 || evs[0].Site != "y" {
		t.Fatalf("events after re-arm: %+v", evs)
	}
}

// BenchmarkFireDisarmed measures the cost every threaded site pays in
// production: one atomic load and a nil check.
func BenchmarkFireDisarmed(b *testing.B) {
	Disarm()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Fire("serve.pool.enqueue"); err != nil {
			b.Fatal(err)
		}
	}
}
