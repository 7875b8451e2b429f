package metrics

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestExpositionGolden renders one registry holding every family form and
// compares the text with testdata/exposition.golden byte for byte: an
// unlabeled counter, counter func and gauge func; a two-label counter vec
// pushed past its series cap; a gauge vec with a label value that needs
// escaping; unlabeled and labeled histograms; labeled families with no
// series; HELP text that needs escaping and a family with none. Every line
// of the golden file must pass validateExposition.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "first line\nsecond \\ line").Add(7)
	r.CounterFunc("b_total", "a counter func", func() int64 { return 42 })
	r.GaugeFunc("c_gauge", "a gauge func", func() float64 { return 2.5e-7 })
	r.GaugeFunc("c_help_less", "", func() float64 { return -3 })

	over := r.CounterVec("d_total", "a two-label counter vec past its cap", "a", "b")
	for i := 0; i < DefaultMaxSeries+3; i++ {
		over.With(fmt.Sprintf("x%02d", i), "y").Inc()
	}
	over.With("x00", "y").Add(4)

	g := r.GaugeVec("e_state", "a gauge vec", "peer")
	g.With("n1").Set(2)
	g.With(`we"ird\peer`).Set(-0.5)
	g.With("n0").Set(0)

	h := r.Histogram("f_seconds", "an unlabeled histogram", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 50} {
		h.Observe(v)
	}
	hv := r.HistogramVec("g_seconds", "a labeled histogram", []float64{0.001, 1}, "stage", "engine")
	hv.With("solve", "tc").Observe(0.5)
	hv.With("factorize", "fp32").Observe(2)
	hv.With("factorize", "fp32").Observe(0.0005)

	r.CounterVec("h_total", "a labeled counter with no series", "code")
	r.GaugeVec("h_state", "a labeled gauge with no series", "peer")
	r.HistogramVec("h_seconds", "a labeled histogram with no series", LatencyBuckets, "stage")

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("exposition differs from testdata/exposition.golden:\n%s", got)
	}
	validateExposition(t, string(want))

	snap := over.Snapshot()
	if len(snap) != DefaultMaxSeries+1 || snap["x00,y"] != 5 || snap["x63,y"] != 1 ||
		snap[OverflowLabel+","+OverflowLabel] != 3 {
		t.Errorf("Snapshot() = %v", snap)
	}
	var keys []string
	for k := range hv.Series() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"factorize,fp32", "solve,tc"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("Series() keys = %q, want %q", keys, want)
	}
}
