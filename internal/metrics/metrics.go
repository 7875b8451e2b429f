// Package metrics is a dependency-free, race-safe metrics registry for the
// serving subsystem: counters, gauges, and fixed-bucket histograms with
// quantile estimation, rendered in the Prometheus text exposition format
// (version 0.0.4) by WriteText / ServeHTTP.
//
// The paper's argument is a per-stage precision/performance trade (TensorCore
// GEMM fraction, panel cost, refinement iteration counts), so the serving
// layer needs per-stage latency distributions and per-engine work counters,
// not just request totals. This package provides the primitives; the serve
// package owns the metric families and their names (DESIGN.md §10).
//
// Design constraints, in order:
//
//   - zero dependencies (stdlib only), so the compute library stays
//     dependency-free;
//   - hot-path writes are a few atomic operations (no locks, no maps on the
//     counter/histogram Observe paths once a series exists);
//   - bounded cardinality: labeled families cap their distinct series and
//     collapse the excess into a reserved "_other" series, so no client-
//     influenced label can grow a map without bound.
package metrics

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSeries bounds the distinct label-value combinations a labeled
// family tracks before collapsing new combinations into the "_other" series.
const DefaultMaxSeries = 64

// OverflowLabel is the reserved label value that absorbs series past a
// family's cardinality bound.
const OverflowLabel = "_other"

// LatencyBuckets is the default histogram layout for request-path stage
// durations in seconds: roughly logarithmic from 100µs (a cache-hit lookup)
// to 60s (a cold factorization at the largest accepted shape).
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// family is one named metric family in a registry: its exposition header
// and the function that renders its samples.
type family struct {
	name, help, typ string
	write           func(w io.Writer)
}

// Registry holds named metric families. The zero value is not usable; create
// with NewRegistry. Registration panics on an invalid or duplicate name —
// families are wired once at server construction, so a clash is a programming
// error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) add(name, help, typ string, write func(w io.Writer)) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: metric %q registered twice", name))
	}
	r.families[name] = &family{name: name, help: help, typ: typ, write: write}
}

// Counter registers and returns an unlabeled monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(name, help, "counter", func(w io.Writer) { fmt.Fprintf(w, "%s %d\n", name, c.Value()) })
	return c
}

// CounterVec registers and returns a labeled counter family with the given
// label names. Series cardinality is capped at DefaultMaxSeries; further
// label combinations share the OverflowLabel series.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{newVec(name, labels, func() *Counter { return &Counter{} })}
	r.add(name, help, "counter", func(w io.Writer) {
		v.each(func(ls string, c *Counter) { fmt.Fprintf(w, "%s{%s} %d\n", name, ls, c.Value()) })
	})
	return v
}

// CounterFunc registers a counter whose value is read from fn at render
// time. Use it to expose counters another component already maintains (pool
// completions, cache hits) without double-counting on the hot path.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.add(name, help, "counter", func(w io.Writer) { fmt.Fprintf(w, "%s %d\n", name, fn()) })
}

// GaugeFunc registers a gauge sampled from fn at render time (queue depth,
// cache bytes, uptime).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(name, help, "gauge", func(w io.Writer) { fmt.Fprintf(w, "%s %s\n", name, formatFloat(fn())) })
}

// GaugeVec registers and returns a labeled settable gauge family (peer health
// state, build info). Series cardinality is capped at DefaultMaxSeries;
// further label combinations share the OverflowLabel series.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{newVec(name, labels, func() *Gauge { return &Gauge{} })}
	r.add(name, help, "gauge", func(w io.Writer) {
		v.each(func(ls string, g *Gauge) { fmt.Fprintf(w, "%s{%s} %s\n", name, ls, formatFloat(g.Value())) })
	})
	return v
}

// Histogram registers and returns an unlabeled fixed-bucket histogram.
// Buckets are ascending upper bounds; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.add(name, help, "histogram", func(w io.Writer) { writeHistogram(w, name, "", h) })
	return h
}

// HistogramVec registers and returns a labeled histogram family. Series
// cardinality is capped at DefaultMaxSeries; further label combinations
// share the OverflowLabel series.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	newHistogram(buckets) // validate the layout once, eagerly
	v := &HistogramVec{newVec(name, labels, func() *Histogram { return newHistogram(buckets) })}
	r.add(name, help, "histogram", func(w io.Writer) {
		v.each(func(ls string, h *Histogram) { writeHistogram(w, name, ls, h) })
	})
	return v
}

// --- counter ---------------------------------------------------------------

// Counter is a monotonically increasing event count. All methods are safe
// for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 panics: counters are monotonic).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a labeled counter family with bounded cardinality.
type CounterVec struct{ vec[*Counter] }

// Snapshot returns the current value of every series, keyed by the label
// values joined with "," (a single-label family's keys are the bare values).
// The returned map is a private copy, safe to encode without locking.
func (v *CounterVec) Snapshot() map[string]int64 {
	series := v.Series()
	out := make(map[string]int64, len(series))
	for key, c := range series {
		out[key] = c.Value()
	}
	return out
}

// --- gauge -----------------------------------------------------------------

// Gauge is a settable instantaneous value. All methods are safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a labeled settable gauge family with bounded cardinality.
type GaugeVec struct{ vec[*Gauge] }

// --- histogram -------------------------------------------------------------

// Histogram is a fixed-bucket distribution with an exact sum, count, and
// max, and interpolated quantile estimation. Observations are a handful of
// atomic operations; there is no locking.
type Histogram struct {
	bounds  []float64      // ascending upper bounds (exclusive of +Inf)
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	maxBits atomic.Uint64 // float64 bits, CAS-maximized
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("metrics: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("metrics: histogram buckets must be strictly ascending")
		}
	}
	bounds := append([]float64(nil), buckets...)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v && old != 0 {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max returns the largest observed value (0 before any observation).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket containing the target rank — the standard fixed-bucket
// estimator. Ranks landing in the +Inf bucket return twice the largest
// finite bound, clamped by the observed max; an empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) {
				// +Inf bucket: twice the last finite bound, but never past
				// the observed max.
				return math.Min(h.Max(), h.bounds[len(h.bounds)-1]*2)
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			est := lo + (hi-lo)*frac
			if m := h.Max(); m > 0 && est > m {
				est = m
			}
			return est
		}
		cum += n
	}
	return h.Max()
}

// snapshotCounts returns per-bucket counts (cumulative rendering happens in
// WriteText).
func (h *Histogram) snapshotCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// HistogramVec is a labeled histogram family with bounded cardinality.
type HistogramVec struct{ vec[*Histogram] }

// --- labeled families ------------------------------------------------------

// vec is every labeled family's series store: a map from label values to
// series, capped at DefaultMaxSeries distinct combinations plus the shared
// OverflowLabel series. Keys are the label values joined with "\x1f".
type vec[S any] struct {
	name      string
	labels    []string
	overflow  string // the key of the OverflowLabel series
	newSeries func() S

	mu     sync.RWMutex
	series map[string]S
}

func newVec[S any](name string, labels []string, newSeries func() S) vec[S] {
	checkLabels(name, labels)
	return vec[S]{
		name:      name,
		labels:    labels,
		overflow:  strings.Repeat(OverflowLabel+"\x1f", len(labels)-1) + OverflowLabel,
		newSeries: newSeries,
		series:    make(map[string]S),
	}
}

// With returns the series for the given label values (one per label name,
// in order), creating it on first use. Past the cardinality bound every new
// combination maps to the shared OverflowLabel series.
func (v *vec[S]) With(values ...string) S {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x1f")
	v.mu.RLock()
	s, ok := v.series[key]
	v.mu.RUnlock()
	if ok {
		return s
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s, ok := v.series[key]; ok {
		return s
	}
	if len(v.series) >= DefaultMaxSeries {
		key = v.overflow
		if s, ok := v.series[key]; ok {
			return s
		}
	}
	s = v.newSeries()
	v.series[key] = s
	return s
}

// Len reports the number of distinct series (the cardinality tests assert
// this stays bounded under hostile input).
func (v *vec[S]) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.series)
}

// Series returns the live series for every label combination, keyed by the
// label values joined with ",". The series themselves are safe to read
// concurrently; the map is a copy.
func (v *vec[S]) Series() map[string]S {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]S, len(v.series))
	for key, s := range v.series {
		out[strings.ReplaceAll(key, "\x1f", ",")] = s
	}
	return out
}

// each calls fn on every series in label-value order, with its labels
// rendered as `name="value",...`.
func (v *vec[S]) each(fn func(labels string, s S)) {
	type entry struct {
		key string
		s   S
	}
	v.mu.RLock()
	entries := make([]entry, 0, len(v.series))
	for key, s := range v.series {
		entries = append(entries, entry{key, s})
	}
	v.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	for _, e := range entries {
		fn(labelString(v.labels, strings.Split(e.key, "\x1f")), e.s)
	}
}

func checkLabels(name string, labels []string) {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: %s: labeled family needs at least one label", name))
	}
	for _, l := range labels {
		if !nameRe.MatchString(l) {
			panic(fmt.Sprintf("metrics: %s: invalid label name %q", name, l))
		}
	}
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
