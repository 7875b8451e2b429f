package metrics

import (
	"fmt"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndVec(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	v := r.CounterVec("requests_total", "reqs", "endpoint")
	v.With("solve").Add(3)
	v.With("factorize").Inc()
	v.With("solve").Inc()
	snap := v.Snapshot()
	if snap["solve"] != 4 || snap["factorize"] != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	// The snapshot must be a private copy.
	snap["solve"] = 99
	if v.Snapshot()["solve"] != 4 {
		t.Fatalf("snapshot aliases live state")
	}
}

// TestCounterVecCardinalityBound feeds each labeled family form ten times
// its series cap of distinct label values: it must hold DefaultMaxSeries
// series plus the one OverflowLabel series, which takes every excess write.
func TestCounterVecCardinalityBound(t *testing.T) {
	const writes = 10 * DefaultMaxSeries
	for _, tc := range []struct {
		form string
		// fill makes writes series writes, the ith with value i, and
		// returns the family's series count and its overflow series' value.
		fill         func(r *Registry) (series int, overflow float64)
		wantOverflow float64
	}{
		{"counter", func(r *Registry) (int, float64) {
			v := r.CounterVec("errors_total", "errs", "detail")
			for i := 0; i < writes; i++ {
				v.With(fmt.Sprintf("hostile-detail-%d", i)).Inc()
			}
			return v.Len(), float64(v.Snapshot()[OverflowLabel])
		}, writes - DefaultMaxSeries}, // every excess increment
		{"gauge", func(r *Registry) (int, float64) {
			v := r.GaugeVec("peer_state", "state", "peer")
			for i := 0; i < writes; i++ {
				v.With(fmt.Sprintf("peer-%d", i)).Set(float64(i))
			}
			return v.Len(), v.Series()[OverflowLabel].Value()
		}, writes - 1}, // the last excess Set
		{"histogram", func(r *Registry) (int, float64) {
			v := r.HistogramVec("stage_seconds", "stages", []float64{1}, "stage")
			for i := 0; i < writes; i++ {
				v.With(fmt.Sprintf("stage-%d", i)).Observe(float64(i))
			}
			return v.Len(), float64(v.Series()[OverflowLabel].Count())
		}, writes - DefaultMaxSeries}, // every excess observation
	} {
		t.Run(tc.form, func(t *testing.T) {
			series, overflow := tc.fill(NewRegistry())
			if series != DefaultMaxSeries+1 {
				t.Errorf("%d series, want the cap %d plus the overflow series", series, DefaultMaxSeries)
			}
			if overflow != tc.wantOverflow {
				t.Errorf("overflow series reads %g, want %g", overflow, tc.wantOverflow)
			}
		})
	}
}

func TestHistogramBasics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 5.605; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	if h.Max() != 5 {
		t.Fatalf("max = %g, want 5", h.Max())
	}
	// Median rank 2.5 of 5 falls in the (0.01, 0.1] bucket.
	if q := h.Quantile(0.5); q <= 0.01 || q > 0.1 {
		t.Fatalf("p50 = %g, want in (0.01, 0.1]", q)
	}
	// p99 lands in the +Inf bucket: clamped to max.
	if q := h.Quantile(0.99); q > h.Max() {
		t.Fatalf("p99 = %g exceeds the observed max %g", q, h.Max())
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile should be 0")
	}
	h.Observe(0.5)
	if q := h.Quantile(0.999); q > 1 {
		t.Fatalf("single small observation gave q=%g > first bound", q)
	}
	h.Observe(math.NaN()) // must not corrupt state
	if h.Count() != 1 {
		t.Fatalf("NaN observation was counted")
	}
	// A rank in the +Inf bucket reads twice the last finite bound, clamped
	// by the observed max.
	for _, c := range []struct{ v, want float64 }{{3, 3}, {10, 4}} {
		h := newHistogram([]float64{1, 2})
		h.Observe(c.v)
		if q := h.Quantile(0.99); q != c.want {
			t.Errorf("observing %g: p99 = %g, want %g", c.v, q, c.want)
		}
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	h.ObserveDuration(250 * time.Millisecond)
	if math.Abs(h.Sum()-0.25) > 1e-12 {
		t.Fatalf("sum = %g, want 0.25", h.Sum())
	}
}

func TestPrometheusTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a counter").Add(7)
	v := r.CounterVec("b_total", "b counter", "code")
	v.With(`weird"value\with`).Inc()
	v.With("ok").Add(2)
	r.GaugeFunc("c_gauge", "a gauge", func() float64 { return 1.5 })
	r.CounterFunc("d_total", "a counter func", func() int64 { return 42 })
	h := r.Histogram("e_seconds", "a histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(50)
	hv := r.HistogramVec("f_seconds", "labeled histogram", []float64{1}, "stage")
	hv.With("solve").Observe(0.5)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	for _, want := range []string{
		"# HELP a_total a counter\n# TYPE a_total counter\na_total 7\n",
		`b_total{code="ok"} 2`,
		`b_total{code="weird\"value\\with"} 1`,
		"# TYPE c_gauge gauge\nc_gauge 1.5\n",
		"# TYPE d_total counter\nd_total 42\n",
		`e_seconds_bucket{le="0.1"} 1`,
		`e_seconds_bucket{le="1"} 2`,
		`e_seconds_bucket{le="+Inf"} 3`,
		"e_seconds_sum 50.55\ne_seconds_count 3\n",
		`f_seconds_bucket{stage="solve",le="1"} 1`,
		`f_seconds_sum{stage="solve"} 0.5`,
		`f_seconds_count{stage="solve"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// Families must be sorted and every sample line must parse as
	// `name{labels} value` or `name value`.
	validateExposition(t, text)
}

// validateExposition checks the structural invariants of the Prometheus text
// format: HELP/TYPE precede samples of their family, sample lines match the
// grammar, and histogram cumulative buckets are monotonic.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+]+|\+Inf|NaN)$`)
	var lastCum = map[string]int64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		if strings.HasSuffix(m[1], "_bucket") {
			val, err := strconv.ParseInt(m[3], 10, 64)
			if err != nil {
				t.Errorf("non-integer bucket count in %q", line)
				continue
			}
			seriesKey := m[1] + stripLe(m[2])
			if val < lastCum[seriesKey] {
				t.Errorf("non-monotonic cumulative bucket in %q", line)
			}
			lastCum[seriesKey] = val
		}
	}
}

func stripLe(labels string) string {
	i := strings.Index(labels, "le=")
	if i < 0 {
		return labels
	}
	return labels[:i]
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("body %q", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "")
}

// TestConcurrentUse hammers every mutating path from many goroutines; run
// under -race this is the registry's thread-safety gate.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	v := r.CounterVec("conc_vec_total", "", "k")
	h := r.Histogram("conc_seconds", "", LatencyBuckets)
	hv := r.HistogramVec("conc_vec_seconds", "", []float64{0.1, 1}, "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				v.With(fmt.Sprintf("k%d", i%100)).Inc()
				h.Observe(float64(i%7) / 100)
				hv.With("s").Observe(float64(i%3) / 10)
				if i%50 == 0 {
					var sb strings.Builder
					_ = r.WriteText(&sb)
					_ = v.Snapshot()
					_ = h.Quantile(0.95)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Value() != 8*500 {
		t.Fatalf("counter = %d, want %d", c.Value(), 8*500)
	}
	if h.Count() != 8*500 {
		t.Fatalf("histogram count = %d, want %d", h.Count(), 8*500)
	}
}
