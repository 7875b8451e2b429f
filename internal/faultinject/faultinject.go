// Package faultinject is a deterministic failpoint registry: named sites
// threaded through the serving and compute stack that normally compile down
// to a single atomic nil-check, and can be armed — from a test or from
// tcqrd's -fault-spec flag — with a schedule of injected failures (typed
// errors, panics, latency, value corruption) driven by a seeded PRNG.
//
// The contract is determinism: the same spec (including its seed) produces
// the same activation decisions for the same per-site hit sequence. Every
// trigger draws from a per-site splitmix64 stream seeded by the global seed
// and the site name, and every firing is recorded in a sequenced event log,
// so a chaos run can be replayed exactly and a failure report can say "the
// 3rd hit of serve.cache.factorize panicked".
//
// Sites are plain strings owned by the package they instrument, following
// the naming scheme <package>.<component>.<operation> (DESIGN.md §11). The
// sites a daemon can fire are listed once, in internal/serve's faultSites,
// the list serve.CheckFaultSites holds tcqrd's -fault-spec to.
//
// The package deliberately depends on nothing in the repository (std only),
// so any layer — engine simulator, TSQR tree, serving pool — can thread
// a site without an import cycle.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Action is what an armed site does when its trigger fires.
type Action int

const (
	// ActError returns a typed error from the site.
	ActError Action = iota
	// ActPanic panics at the site (the layers above must contain it).
	ActPanic
	// ActDelay sleeps for the configured duration, then proceeds normally.
	ActDelay
	// ActCorrupt runs the site's corruption hook (sites that produce values
	// rather than errors pass one to Corrupt; Fire ignores this action).
	ActCorrupt
)

// String names the action (stable: these appear in metrics labels).
func (a Action) String() string {
	switch a {
	case ActError:
		return "error"
	case ActPanic:
		return "panic"
	case ActDelay:
		return "delay"
	case ActCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// ErrInjected is the sentinel every ActError firing wraps, so callers and
// tests can recognize an injected failure with errors.Is.
var ErrInjected = errors.New("injected fault")

// Event records one firing: the global sequence number (1-based, across all
// sites), the site, the action taken, and the per-site hit index that
// triggered it.
type Event struct {
	Seq    int64
	Site   string
	Action Action
	Hit    int64
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("#%d %s hit=%d -> %s", e.Seq, e.Site, e.Hit, e.Action)
}

// Observer receives one callback per firing, inline at the site. Observers
// must be cheap and safe for concurrent use; the serving layer registers one
// to expose tcqrd_fault_injected_total on /metrics.
type Observer func(Event)

// rule is one armed site's parsed schedule.
type rule struct {
	action Action
	msg    string        // error/panic message (defaults to the site name)
	delay  time.Duration // ActDelay sleep

	// Trigger: fire when (every/once position matches) && (PRNG draw < prob)
	// && fewer than maxFires firings so far. Zero values mean "always".
	prob     float64 // 0 = no probability gate
	every    int64   // fire on hits every, 2*every, ... (0 = every hit)
	once     int64   // fire exactly once, on hit #once (0 = disabled)
	maxFires int64   // cap on total firings (0 = unbounded)

	mu    sync.Mutex
	hits  int64
	fires int64
	rng   uint64 // splitmix64 state, seeded from global seed + site name
}

// registry is one armed configuration. Arm swaps a whole registry in
// atomically, so a disarmed process pays exactly one atomic load per site.
type registry struct {
	seed  uint64
	rules map[string]*rule

	seq    atomic.Int64
	mu     sync.Mutex
	events []Event // bounded at maxEvents; seq keeps counting past it
}

// maxEvents bounds the replay log so a soak run cannot grow it without
// bound; firings past the bound are still counted and observed.
const maxEvents = 4096

var (
	armed     atomic.Pointer[registry]
	armMu     sync.Mutex // serializes Arm/Disarm
	observers atomic.Pointer[[]observerEntry]
	obsMu     sync.Mutex
	obsID     int64
)

type observerEntry struct {
	id int64
	fn Observer
}

// Arm parses spec and installs it as the process-wide fault schedule,
// replacing any previous one. The grammar (DESIGN.md §11):
//
//	spec    := term { ';' term }
//	term    := "seed=" uint64 | site '=' rule
//	rule    := action [ '(' arg ')' ] [ '@' cond { ',' cond } ]
//	action  := "error" | "panic" | "delay" | "corrupt"
//	arg     := message (error, panic) | Go duration (delay)
//	cond    := "p=" float | "every=" n | "once=" n | "count=" n
//
// Example:
//
//	seed=42;serve.cache.factorize=panic@every=3;serve.wire.decode=error@p=0.25;serve.pool.dequeue=delay(2ms)@once=5
//
// An omitted seed defaults to 1. A rule with no conditions fires on every
// hit. Arm returns an error (leaving the previous schedule in place) if the
// spec does not parse.
func Arm(spec string) error {
	r, err := parseSpec(spec)
	if err != nil {
		return err
	}
	armMu.Lock()
	armed.Store(r)
	armMu.Unlock()
	return nil
}

// Disarm removes the fault schedule; every site reverts to its zero-cost
// no-op path. Idempotent.
func Disarm() {
	armMu.Lock()
	armed.Store(nil)
	armMu.Unlock()
}

// Sites returns the armed site names in sorted order (nil when disarmed).
func Sites() []string {
	r := armed.Load()
	if r == nil {
		return nil
	}
	out := make([]string, 0, len(r.rules))
	for s := range r.rules {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Events returns a copy of the firing log (bounded at 4096 entries) of the
// currently armed schedule, in firing order.
func Events() []Event {
	r := armed.Load()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// RegisterObserver adds fn to the firing observer list and returns an
// idempotent unregister function. Observers survive Arm/Disarm cycles.
func RegisterObserver(fn Observer) (unregister func()) {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsID++
	id := obsID
	var cur []observerEntry
	if p := observers.Load(); p != nil {
		cur = *p
	}
	next := make([]observerEntry, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, observerEntry{id: id, fn: fn})
	observers.Store(&next)
	return func() {
		obsMu.Lock()
		defer obsMu.Unlock()
		old := observers.Load()
		if old == nil {
			return
		}
		repl := make([]observerEntry, 0, len(*old))
		for _, e := range *old {
			if e.id != id {
				repl = append(repl, e)
			}
		}
		if len(repl) == 0 {
			observers.Store(nil)
			return
		}
		observers.Store(&repl)
	}
}

// Fire evaluates site against the armed schedule. Disarmed or inactive it
// returns nil at the cost of one atomic load. When the site's trigger fires:
// an error rule returns the injected error (wrapping ErrInjected), a panic
// rule panics, a delay rule sleeps and returns nil, and a corrupt rule is
// ignored (value-producing sites use Corrupt instead).
func Fire(site string) error {
	r := armed.Load()
	if r == nil {
		return nil
	}
	return r.fire(site, nil)
}

// Corrupt evaluates site like Fire, but a corrupt rule runs hook (which
// mutates the site's output in place — e.g. poisoning a GEMM result with
// NaN) instead of being ignored. Error rules are ignored here: a site that
// calls Corrupt has no error channel to return one through. Panic and delay
// behave as in Fire.
func Corrupt(site string, hook func()) {
	r := armed.Load()
	if r == nil {
		return
	}
	_ = r.fire(site, hook)
}

// fire is the shared evaluation path. hook non-nil marks a Corrupt call
// site: corrupt rules run the hook and error rules are suppressed.
func (r *registry) fire(site string, hook func()) error {
	rl, ok := r.rules[site]
	if !ok {
		return nil
	}
	rl.mu.Lock()
	rl.hits++
	hit := rl.hits
	fire := rl.decideLocked(hit)
	if fire {
		rl.fires++
	}
	rl.mu.Unlock()
	if !fire {
		return nil
	}

	ev := Event{Seq: r.seq.Add(1), Site: site, Action: rl.action, Hit: hit}
	r.record(ev)
	notifyObservers(ev)

	switch rl.action {
	case ActError:
		if hook != nil {
			return nil // valueless site: no error channel
		}
		return fmt.Errorf("faultinject: %s at %s (hit %d): %w", rl.msg, site, hit, ErrInjected)
	case ActPanic:
		panic(fmt.Sprintf("faultinject: %s at %s (hit %d)", rl.msg, site, hit))
	case ActDelay:
		time.Sleep(rl.delay)
	case ActCorrupt:
		if hook != nil {
			hook()
		}
	}
	return nil
}

// decideLocked evaluates the rule's trigger for the given hit. rl.mu held.
func (rl *rule) decideLocked(hit int64) bool {
	if rl.maxFires > 0 && rl.fires >= rl.maxFires {
		return false
	}
	if rl.once > 0 {
		if hit != rl.once || rl.fires > 0 {
			return false
		}
	} else if rl.every > 0 && hit%rl.every != 0 {
		return false
	}
	if rl.prob > 0 {
		// splitmix64: a deterministic per-site stream, independent of every
		// other site, advanced once per probability evaluation.
		rl.rng += 0x9E3779B97F4A7C15
		z := rl.rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		if float64(z>>11)/float64(uint64(1)<<53) >= rl.prob {
			return false
		}
	}
	return true
}

func (r *registry) record(ev Event) {
	r.mu.Lock()
	if len(r.events) < maxEvents {
		r.events = append(r.events, ev)
	}
	r.mu.Unlock()
}

func notifyObservers(ev Event) {
	p := observers.Load()
	if p == nil {
		return
	}
	for _, e := range *p {
		e.fn(ev)
	}
}

// --- spec parsing -----------------------------------------------------------

func parseSpec(spec string) (*registry, error) {
	r := &registry{seed: 1, rules: make(map[string]*rule)}
	var clauses []string // site clauses, parsed after the seed is known
	for _, term := range strings.Split(spec, ";") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(term, "seed="); ok {
			seed, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", rest, err)
			}
			r.seed = seed
			continue
		}
		clauses = append(clauses, term)
	}
	for _, cl := range clauses {
		site, ruleStr, ok := strings.Cut(cl, "=")
		site = strings.TrimSpace(site)
		if !ok || site == "" {
			return nil, fmt.Errorf("faultinject: clause %q is not site=rule", cl)
		}
		if _, dup := r.rules[site]; dup {
			return nil, fmt.Errorf("faultinject: site %q armed twice", site)
		}
		rl, err := parseRule(site, strings.TrimSpace(ruleStr))
		if err != nil {
			return nil, err
		}
		rl.rng = r.seed ^ siteHash(site)
		r.rules[site] = rl
	}
	if len(r.rules) == 0 {
		return nil, fmt.Errorf("faultinject: spec %q arms no sites", spec)
	}
	return r, nil
}

func parseRule(site, s string) (*rule, error) {
	actionStr, condStr, _ := strings.Cut(s, "@")
	actionStr = strings.TrimSpace(actionStr)

	// action [ '(' arg ')' ]
	arg := ""
	if i := strings.IndexByte(actionStr, '('); i >= 0 {
		if !strings.HasSuffix(actionStr, ")") {
			return nil, fmt.Errorf("faultinject: %s: unclosed argument in %q", site, actionStr)
		}
		arg = actionStr[i+1 : len(actionStr)-1]
		actionStr = actionStr[:i]
	}
	rl := &rule{msg: arg}
	if rl.msg == "" {
		rl.msg = "injected"
	}
	switch actionStr {
	case "error":
		rl.action = ActError
	case "panic":
		rl.action = ActPanic
	case "delay":
		rl.action = ActDelay
		if arg == "" {
			return nil, fmt.Errorf("faultinject: %s: delay needs a duration, e.g. delay(5ms)", site)
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("faultinject: %s: bad delay duration %q", site, arg)
		}
		rl.delay = d
	case "corrupt":
		rl.action = ActCorrupt
	default:
		return nil, fmt.Errorf("faultinject: %s: unknown action %q (want error, panic, delay or corrupt)", site, actionStr)
	}

	if strings.TrimSpace(condStr) == "" {
		if strings.Contains(s, "@") {
			return nil, fmt.Errorf("faultinject: %s: empty trigger after @", site)
		}
		return rl, nil
	}
	for _, cond := range strings.Split(condStr, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(cond), "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: %s: trigger %q is not key=value", site, cond)
		}
		switch k {
		case "p":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("faultinject: %s: p=%q must be in (0, 1]", site, v)
			}
			rl.prob = p
		case "every":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultinject: %s: every=%q must be >= 1", site, v)
			}
			rl.every = n
		case "once":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultinject: %s: once=%q must be >= 1", site, v)
			}
			rl.once = n
		case "count":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultinject: %s: count=%q must be >= 1", site, v)
			}
			rl.maxFires = n
		default:
			return nil, fmt.Errorf("faultinject: %s: unknown trigger %q (want p, every, once or count)", site, k)
		}
	}
	if rl.once > 0 && rl.every > 0 {
		return nil, fmt.Errorf("faultinject: %s: once and every are mutually exclusive", site)
	}
	return rl, nil
}

func siteHash(site string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(site))
	return h.Sum64()
}
