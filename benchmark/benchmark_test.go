package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"tcqr"
)

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	gen := func(seed int64) ([]float64, []float64) {
		return condMatrix(rngFor(seed, "t/A"), 96, 12).Data, normalVec(rngFor(seed, "t/b"), 96)
	}
	a1, b1 := gen(7)
	a2, b2 := gen(7)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("same seed produced different inputs")
	}
	a3, b3 := gen(8)
	if reflect.DeepEqual(a1, a3) || reflect.DeepEqual(b1, b3) {
		t.Fatal("different seeds produced identical inputs")
	}
	if reflect.DeepEqual(normalVec(rngFor(7, "x"), 8), normalVec(rngFor(7, "y"), 8)) {
		t.Fatal("different streams of one seed produced identical inputs")
	}
}

func TestRotateRows(t *testing.T) {
	src := tcqr.FromColMajor(4, 2, []float64{0, 1, 2, 3, 10, 11, 12, 13})
	dst := tcqr.NewMatrix(4, 2)
	rotateRows(dst, src, 5) // 5 mod 4 = 1
	want := []float64{1, 2, 3, 0, 11, 12, 13, 10}
	if !reflect.DeepEqual(dst.Data, want) {
		t.Fatalf("rotateRows = %v, want %v", dst.Data, want)
	}
	rotateRows(dst, src, 0)
	if !reflect.DeepEqual(dst.Data, src.Data) {
		t.Fatalf("rotation by 0 changed the matrix: %v", dst.Data)
	}
}

// A row rotation of (A, b) must leave the least squares solution where it
// was and change the body's content hash: serve-cold-tall depends on both.
func TestRowRotationPreservesSolution(t *testing.T) {
	const m, n = 160, 12
	a := condMatrix(rngFor(3, "rot/A"), m, n)
	b := normalVec(rngFor(3, "rot/b"), m)
	x0, err := tcqr.SolveLeastSquares(a, b, tcqr.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := tcqr.NewMatrix(m, n), make([]float64, m)
	rotateRows(pa, a, 37)
	rotateVec(pb, b, 37)
	if tcqr.ToFloat32(pa).Hash64() == tcqr.ToFloat32(a).Hash64() {
		t.Fatal("rotated matrix hashes like the original")
	}
	x1, err := tcqr.SolveLeastSquares(pa, pb, tcqr.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range x0.X {
		if d := math.Abs(x0.X[j] - x1.X[j]); d > 1e-9*(1+math.Abs(x0.X[j])) {
			t.Fatalf("x[%d] moved by %g under row rotation", j, d)
		}
	}
	// The check the workload applies: the rotated problem's answer scored
	// against the unrotated inputs.
	if d0, d1 := solveDigits(a, x1.X, b), solveDigits(pa, x1.X, pb); math.Abs(d0-d1) > 0.5 || d0 < minGoodDigits {
		t.Fatalf("digits against unrotated %.2f, against rotated %.2f", d0, d1)
	}
}

func TestSolveDigits(t *testing.T) {
	a := tcqr.FromColMajor(3, 2, []float64{1, 0, 0, 0, 1, 0})
	b := []float64{2, 3, 5}
	if d := solveDigits(a, []float64{2, 3}, b); d != 17 {
		t.Fatalf("exact solution scored %.2f digits, want 17", d)
	}
	// x off by 1e-6 in one component: gradient 1e-6, scale 2·|x| + √2·|b|.
	d := solveDigits(a, []float64{2 + 1e-6, 3}, b)
	want := -math.Log10(1e-6 / (2*math.Sqrt(13) + math.Sqrt2*math.Sqrt(38)))
	if math.Abs(d-want) > 1e-3 {
		t.Fatalf("digits = %.4f, want %.4f", d, want)
	}
	if d := solveDigits(a, []float64{1}, b); !math.IsInf(d, -1) {
		t.Fatalf("wrong-length x scored %v", d)
	}
}

func TestPercentileAndSpread(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %g, want 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13, 20], n=4) == [10.5, 12.0, 16.5].
	if got := quartileSpread([]float64{20, 10, 12, 11, 13}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("quartileSpread = %g, want 0.5", got)
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("queue;dur=2.301, factorize;dur=41.5, solve;dur=0.912, encode;dur=0.013, solve;dur=0.088, miss;desc=x")
	want := map[string]float64{"queue": 2.301, "factorize": 41.5, "solve": 1.0, "encode": 0.013}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if len(parseServerTiming("")) != 0 {
		t.Error("empty header produced stages")
	}
}

func TestParseStatz(t *testing.T) {
	s, err := parseStatz(`{
  "uptime_seconds": 3.5,
  "requests": {"solve": 120, "update": 40},
  "cache": {"entries": 4, "hits": 118, "misses": 2, "evictions": 1, "retired": 40, "rewarmed": 4},
  "coalescer": {"batches": 100, "batched_requests": 40, "max_batch": 2},
  "timing": {"solve": {"count": 120, "p50_ms": 1.2}}
}`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Requests["solve"] != 120 || s.Cache.Hits != 118 || s.Cache.Misses != 2 || s.Cache.Evictions != 1 ||
		s.Cache.Retired != 40 || s.Cache.Rewarmed != 4 || s.Coalescer.Batches != 100 {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := parseStatz("not json"); err == nil {
		t.Error("garbage parsed as statz")
	}
}

func TestParsePprofMemStats(t *testing.T) {
	profile := `heap profile: 1: 2048 [5: 10240] @ heap/1048576
1: 2048 [5: 10240] @ 0x4a 0x4b
#	0x4a	main.f+0x1a	/x/main.go:10

# runtime.MemStats
# Alloc = 1234567
# TotalAlloc = 987654321
# Sys = 22222222
# Mallocs = 4242
# Frees = 4000
# NumGC = 7
`
	m, err := parsePprofMemStats(profile)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mallocs != 4242 || m.TotalAlloc != 987654321 {
		t.Fatalf("parsed %+v", m)
	}
	if _, err := parsePprofMemStats("heap profile: 0: 0 [0: 0] @ heap/0\n# Mallocs = 3\n"); err == nil {
		t.Error("footer without TotalAlloc accepted")
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// Field 2 holds spaces and parentheses; utime=150 and stime=50 ticks.
	line := "4242 (tcqrd (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 50 0 0 20 0 9 0 100 1000 200 18446744073709551615"
	d, err := parseProcStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2*time.Second {
		t.Fatalf("cpu = %v, want 2s", d)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("garbage parsed as proc stat")
	}
}

func TestParseMetricsText(t *testing.T) {
	m := parseMetricsText(`# HELP tcqrd_spill_writes_total Factorization entries durably spilled.
# TYPE tcqrd_spill_writes_total counter
tcqrd_spill_writes_total 12
tcqrd_tsqr_stage_seconds_bucket{stage="block_factor",le="0.01"} 3
tcqrd_tsqr_stage_seconds_sum{stage="block_factor"} 1.25
tcqrd_tsqr_stage_seconds_count{stage="block_factor"} 50
tcqrd_spill_bytes 1.7e+07
`)
	if m["tcqrd_spill_writes_total"] != 12 || m[`tcqrd_tsqr_stage_seconds_sum{stage="block_factor"}`] != 1.25 ||
		m[`tcqrd_tsqr_stage_seconds_count{stage="block_factor"}`] != 50 || m["tcqrd_spill_bytes"] != 1.7e7 {
		t.Fatalf("parsed %v", m)
	}
}

func TestVerdictFor(t *testing.T) {
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"within bound", lower, []float64{100}, []float64{105}, "ok"},
		{"past bound", lower, []float64{100}, []float64{115}, "regressed"},
		{"better is never a regression", lower, []float64{100}, []float64{50}, "ok"},
		{"higher-is-better drops", higher, []float64{100}, []float64{85}, "regressed"},
		{"noisy sides that overlap", lower, []float64{90, 100, 125}, []float64{95, 104, 130}, "unresolved"},
		{"noisy but every run worse", lower, []float64{90, 100, 104}, []float64{120, 130, 150}, "regressed"},
		{"noisy but every run better", lower, []float64{100, 120, 140}, []float64{50, 60, 70}, "ok"},
	} {
		if got, _ := verdictFor(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json and the program's own tables must name the same workloads
// and metrics with the same units, inside the limits the file format sets.
func TestSpecMatchesProgram(t *testing.T) {
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the naming limits", w.Name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: %q (%q) breaks the naming limits", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s has better=%q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: %s has bound %g", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, true)
	check("per_layer", s.PerLayer, perLayer, false)
	if len(s.PerLayer) > 128 || len(s.EndToEnd) > 16 || s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Error("BENCHMARK.json is outside the format's caps")
	}
}

// The smoke test runs every workload both ways at -quick scale against a
// real tcqrd child, and requires of the result line exactly the metric names
// BENCHMARK.json declares for that kind of pass.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join("..", buildDir, "run-*"))
	for _, w := range workloads {
		for trace, want := range map[string][]specMetric{"0": s.EndToEnd, "1": s.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-quick", "-seconds", "0.4", "-seed", "5", "-workload", w.name, "-trace", trace}
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d\n%s\n%s", args, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%v: last line is not the result object: %v\n%s", args, err, lines[len(lines)-1])
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, want %d", args, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%v: metric %s = %+v (present=%v), want unit %s", args, m.Name, got, ok, m.Unit)
				}
				if trace == "0" && got.Value == 0 {
					t.Errorf("%v: end-to-end metric %s is 0", args, m.Name)
				}
			}
		}
	}
	after, _ := filepath.Glob(filepath.Join("..", buildDir, "run-*"))
	if len(after) > len(before) {
		t.Errorf("scratch directories left behind: %v", after)
	}
}

// A directory holding only BENCHMARK.json and this package has no daemon to
// build: the program must say so and fail rather than print a result.
func TestRefusesOutsideTheRepository(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-workload", "lls-dense"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
