package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is BENCHMARK.json: the names, units and directions of the metrics
// and, for the end-to-end ones, the share of the base by which each may get
// worse before a change counts as a regression.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds <= 0 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no run_seconds or end_to_end metrics", path)
	}
	return &s, nil
}

// worsening is how much worse b is than the base a, as a share of a:
// positive when b is worse in the metric's direction.
func (m specMetric) worsening(a, b float64) float64 {
	d := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		return -d
	}
	return d
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one metric of one workload over the untraced passes of
// some reports, and the failures those passes counted.
func values(reports []*report, workload, metric string) (vals []float64, failed int) {
	for _, r := range reports {
		for _, p := range r.Passes {
			if p.Workload != workload || p.Traced {
				continue
			}
			if m, ok := p.Metrics[metric]; ok {
				vals = append(vals, m.Value)
			}
			failed += p.Failed
		}
	}
	return vals, failed
}

func spreadOf(v []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / math.Abs(median(v))
}

// verdictFor judges side B against base A on one (metric, workload) pair by
// the rule of the choosing-metrics guide: regressed when B's median is worse
// than A's by more than the bound; unresolved, not ok, when the runs of
// either side scatter by more than the bound — unless every run of one side
// beats every run of the other, which settles it.
func verdictFor(m specMetric, a, b []float64) (status string, worse float64) {
	worse = m.worsening(median(a), median(b))
	allWorse, allBetter := true, true
	for _, x := range a {
		for _, y := range b {
			if w := m.worsening(x, y); w <= 0 {
				allWorse = false
			} else {
				allBetter = false
			}
		}
	}
	noisy := spreadOf(a) > m.Bound || spreadOf(b) > m.Bound
	switch {
	case worse > m.Bound && (!noisy || allWorse):
		return "regressed", worse
	case noisy && !allBetter:
		return "unresolved", worse
	}
	return "ok", worse
}

// compareFiles prints the verdict on every (end-to-end metric, workload)
// pair of report B against base A, each ratio with its base, and reports
// whether anything regressed.
func compareFiles(w io.Writer, s *spec, pathA, pathB string) (regressed bool, err error) {
	ra, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	rb, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base A: %s (commit %s)   B: %s (commit %s)\n", pathA, ra.Header.Commit, pathB, rb.Header.Commit)
	fmt.Fprintf(w, "%-17s %-16s %-10s %14s %14s %9s %7s\n", "workload", "metric", "verdict", "A (base)", "B", "worse by", "bound")
	for _, wl := range s.Workloads {
		var failedA, failedB int
		for _, m := range s.EndToEnd {
			a, fa := values([]*report{ra}, wl.Name, m.Name)
			b, fb := values([]*report{rb}, wl.Name, m.Name)
			failedA, failedB = fa, fb
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-17s %-16s %-10s (missing from a report)\n", wl.Name, m.Name, "unresolved")
				continue
			}
			status, worse := verdictFor(m, a, b)
			regressed = regressed || status == "regressed"
			fmt.Fprintf(w, "%-17s %-16s %-10s %14.6g %14.6g %+8.2f%% %6.0f%%  %s, n=%d/%d\n",
				wl.Name, m.Name, status, median(a), median(b), worse*100, m.Bound*100, m.Unit, len(a), len(b))
		}
		status := "ok"
		if failedB > failedA {
			status, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-17s %-16s %-10s %14d %14d   (failed operations; any increase regresses)\n", wl.Name, "failed", status, failedA, failedB)
	}
	return regressed, nil
}

// printDisagreement reports, for every (end-to-end metric, workload) pair,
// how far runs of the same code disagree: at worst — the largest directed
// worsening over every ordered pair of runs — and, from four runs up, by the
// quartile distance the acceptance check uses. It returns whether the worst
// disagreement stays within the metric's own bound: a benchmark whose
// identical runs disagree by more than its bound cannot resolve a regression
// of that size.
func printDisagreement(w io.Writer, s *spec, reports []*report) (within bool) {
	within = true
	fmt.Fprintf(w, "# disagreement over %d runs of the same code: worst pair, quartile distance over median\n", len(reports))
	for _, wl := range s.Workloads {
		for _, m := range s.EndToEnd {
			v, _ := values(reports, wl.Name, m.Name)
			var worst float64
			for i := range v {
				for j := range v {
					worst = math.Max(worst, m.worsening(v[i], v[j]))
				}
			}
			status := "ok"
			if worst > m.Bound {
				status, within = "EXCEEDS BOUND", false
			}
			quart := "      -"
			if len(v) >= 4 {
				quart = fmt.Sprintf("%6.2f%%", quartileSpread(v)*100)
			}
			fmt.Fprintf(w, "%-17s %-16s %7.2f%% %s (bound %.0f%%)  %s\n", wl.Name, m.Name, worst*100, quart, m.Bound*100, status)
		}
	}
	return within
}
