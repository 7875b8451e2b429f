package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"
)

// A pass is one measurement of one workload. The untraced pass produces the
// end-to-end metrics; the traced pass produces the per-layer metrics and,
// by timing the same loop with and without spans in one process, what the
// tracing itself costs.

const (
	// roundsPerPass splits the measured time into equal rounds; throughput
	// and CPU per op are medians over rounds, so one disturbed round does
	// not move them.
	roundsPerPass = 6
	// setupsPerPass is how often the untraced pass sets the workload up
	// from nothing; setup_s is the median, the last instance is measured.
	setupsPerPass = 3
	// untracedRounds of the traced pass run with tracing off, as the
	// reference the traced rounds are compared with; the rest are traced.
	untracedRounds = 2
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerSet collects per-layer metrics by name. Metrics a workload does not
// exercise are left unset and read 0 in the output.
type layerSet map[string]float64

func (l layerSet) set(name string, v float64) {
	if _, ok := perLayerUnits[name]; !ok {
		panic("benchmark: undeclared per-layer metric " + name)
	}
	l[name] = v
}

// roundStat is the outcome of one round: what was measured, and the host's
// speed over the round (see hostspeed.go) by which times are normalised.
type roundStat struct {
	Ops       int     `json:"ops"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	HostSpeed float64 `json:"host_speed"`
}

// phase is the outcome of a run of consecutive rounds.
type phase struct {
	latMS     []float64 // one per completed op, host-normalised, ascending
	rawMS     []float64 // the same as measured, ascending
	rounds    []roundStat
	attempted int
	failed    int
	errs      []string // first few op errors
}

// passResult is everything one pass measured.
type passResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Seed      int64                  `json:"seed"`
	Clients   int                    `json:"clients"`
	WallS     float64                `json:"wall_s"`
	SetupS    []float64              `json:"setup_s"`     // host-normalised
	SetupRawS []float64              `json:"setup_raw_s"` // as measured
	RawP50MS  float64                `json:"raw_op_p50_ms"`
	Rounds    []roundStat            `json:"rounds"`
	Samples   int                    `json:"samples"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Checked   int                    `json:"checked"`
	FailRatio float64                `json:"fail_ratio"`
	Correct   bool                   `json:"correct"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Spans     []span                 `json:"spans,omitempty"`
}

// setUp builds an instance and runs its warm-up. It returns the workload's
// set-up time as measured (go build excluded: the binary already exists) and
// the host's speed over it.
func setUp(ctx context.Context, env *env, w *workload, seed int64) (instance, time.Duration, float64, error) {
	s0, _ := hostSpeed()
	t0 := time.Now()
	inst, err := w.setup(ctx, env, seed)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	warm := w.warmup
	if env.quick && warm > 3 {
		warm = 3
	}
	errs := make([]error, inst.clients())
	runClients(inst.clients(), func(c int) {
		for i := 0; i < warm && errs[c] == nil && ctx.Err() == nil; i++ {
			_, errs[c] = inst.op(c, i, nil)
		}
	})
	firstErr := errors.Join(errs...)
	if v := inst.verify(); firstErr == nil && len(v.bad) > 0 {
		firstErr = errors.New(v.bad[0])
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		_ = inst.close()
		return nil, 0, 0, fmt.Errorf("%s: warm-up: %w", w.name, firstErr)
	}
	d := time.Since(t0)
	s1, _ := hostSpeed()
	return inst, d, (s0 + s1) / 2, nil
}

// runRounds drives every client in a closed loop for one round of length
// each per entry of plan: a nil entry is an untraced round, a tracer a
// traced one. It returns what the untraced and the traced rounds measured.
// next holds the index of each client's next op and is advanced in place.
func runRounds(ctx context.Context, inst instance, next []int, plan []*tracer, each time.Duration) (untraced, traced *phase, err error) {
	n := inst.clients()
	untraced, traced = &phase{}, &phase{}
	type clientOut struct {
		lat  []float64
		errs []string
	}
	s0, _ := hostSpeed()
	for _, tr := range plan {
		if ctx.Err() != nil {
			break
		}
		ph := untraced
		if tr != nil {
			ph = traced
		}
		outs := make([]clientOut, n)
		cpu0, err := inst.cpuTime()
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		deadline := t0.Add(each)
		runClients(n, func(c int) {
			o := &outs[c]
			for {
				d, err := inst.op(c, next[c], tr)
				next[c]++
				if err != nil {
					o.errs = append(o.errs, fmt.Sprintf("client %d op %d: %v", c, next[c]-1, err))
				} else {
					o.lat = append(o.lat, float64(d)/1e6)
				}
				if !time.Now().Before(deadline) || ctx.Err() != nil {
					return
				}
			}
		})
		wall := time.Since(t0)
		cpu1, err := inst.cpuTime()
		if err != nil {
			return nil, nil, err
		}
		s1, _ := hostSpeed()
		rs := roundStat{WallS: wall.Seconds(), CPUS: (cpu1 - cpu0).Seconds(), HostSpeed: (s0 + s1) / 2}
		s0 = s1
		for _, o := range outs {
			rs.Ops += len(o.lat)
			ph.attempted += len(o.lat) + len(o.errs)
			ph.failed += len(o.errs)
			ph.rawMS = append(ph.rawMS, o.lat...)
			for _, ms := range o.lat {
				ph.latMS = append(ph.latMS, ms*rs.HostSpeed)
			}
			for _, e := range o.errs {
				if len(ph.errs) < 5 {
					ph.errs = append(ph.errs, e)
				}
			}
		}
		ph.rounds = append(ph.rounds, rs)
	}
	for _, ph := range []*phase{untraced, traced} {
		sort.Float64s(ph.latMS)
		sort.Float64s(ph.rawMS)
	}
	return untraced, traced, ctx.Err()
}

// runPass measures one workload once. withProbe adds the kernel probe's
// rows to a traced pass.
func runPass(ctx context.Context, env *env, w *workload, seed int64, seconds float64, traced, withProbe bool) (*passResult, error) {
	t0 := time.Now()
	res := &passResult{Workload: w.name, Traced: traced, Seed: seed, Metrics: make(map[string]metricValue)}
	each := time.Duration(seconds / roundsPerPass * float64(time.Second))

	setups := setupsPerPass
	if traced {
		setups = 1
	}
	var inst instance
	for k := 0; k < setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var speed float64
		var err error
		if inst, d, speed, err = setUp(ctx, env, w, seed); err != nil {
			return nil, err
		}
		res.SetupRawS = append(res.SetupRawS, d.Seconds())
		res.SetupS = append(res.SetupS, d.Seconds()*speed)
	}
	closed := false
	defer func() {
		if !closed {
			_ = inst.close()
		}
	}()
	res.Clients = inst.clients()
	next := make([]int, inst.clients())
	for c := range next {
		next[c] = w.warmup
	}

	var err error
	if traced {
		err = tracedPhases(ctx, inst, next, each, res)
	} else {
		err = untracedPhase(ctx, inst, next, each, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	closed = true
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if traced && withProbe {
		probe := layerSet{}
		if err := runProbe(ctx, env, probe); err != nil {
			return nil, err
		}
		for name, v := range probe {
			res.Metrics[name] = metricValue{v, perLayerUnits[name]}
		}
	}
	if traced {
		// Every declared layer metric is printed; one this workload does
		// not exercise reads 0.
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.name]; !ok {
				res.Metrics[m.name] = metricValue{0, m.unit}
			}
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operation was attempted; fail_ratio cannot be computed", w.name)
	}
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && res.Checked > 0
	res.WallS = time.Since(t0).Seconds()
	return res, nil
}

// untracedPhase runs the timed rounds with tracing off and derives the
// end-to-end metrics. Times are host-normalised: each round's by the host's
// speed over that round.
func untracedPhase(ctx context.Context, inst instance, next []int, each time.Duration, res *passResult) error {
	mem0, err := inst.memStats()
	if err != nil {
		return err
	}
	ph, _, err := runRounds(ctx, inst, next, make([]*tracer, roundsPerPass), each)
	if err != nil {
		return err
	}
	mem1, err := inst.memStats()
	if err != nil {
		return err
	}
	v := inst.verify()
	res.absorb(ph, v)
	if len(ph.latMS) == 0 {
		return fmt.Errorf("no operation succeeded: %v", ph.errs)
	}
	var tput, cpu []float64
	for _, r := range ph.rounds {
		if r.Ops > 0 {
			tput = append(tput, float64(r.Ops)/(r.WallS*r.HostSpeed))
			cpu = append(cpu, r.CPUS*r.HostSpeed*1e3/float64(r.Ops))
		}
	}
	ops := float64(ph.attempted)
	set := func(name string, v float64) { res.Metrics[name] = metricValue{v, endToEndUnits[name]} }
	set("setup_s", median(res.SetupS))
	set("op_p50_ms", percentile(ph.latMS, 50))
	res.RawP50MS = percentile(ph.rawMS, 50)
	set("ops_per_s", median(tput))
	set("cpu_ms_per_op", median(cpu))
	set("allocs_per_op", float64(mem1.Mallocs-mem0.Mallocs)/ops)
	set("alloc_mb_per_op", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1e6/ops)
	set("solve_digits", v.minDigits)
	return nil
}

// tracedPhases runs reference rounds with tracing off, then the traced
// rounds, and derives the per-layer metrics.
func tracedPhases(ctx context.Context, inst instance, next []int, each time.Duration, res *passResult) error {
	if err := inst.beginTrace(); err != nil {
		return err
	}
	// Reference and traced rounds alternate, so that a drift of the host
	// over the pass lands on both sides of the comparison.
	tr := newTracer()
	plan := make([]*tracer, roundsPerPass)
	for r := range plan {
		if r%2 == 1 || r >= 2*untracedRounds {
			plan[r] = tr
		}
	}
	ref, ph, err := runRounds(ctx, inst, next, plan, each)
	if err != nil {
		return err
	}
	v := inst.verify()
	res.absorb(ref, newVerdict())
	res.absorb(ph, v)
	if len(ph.rawMS) == 0 || len(ref.rawMS) == 0 {
		return fmt.Errorf("no operation succeeded: %v %v", ref.errs, ph.errs)
	}
	layers := layerSet{}
	if err := inst.layers(ctx, tr, ref.attempted+ph.attempted, layers); err != nil {
		return err
	}
	// Layer times are reported as measured, like the spans they come
	// from; host.stream_gbs says how fast the host was meanwhile.
	all := append(append([]float64(nil), ref.rawMS...), ph.rawMS...)
	sort.Float64s(all)
	layers.set("client.op_p90_ms", percentile(all, 90))
	layers.set("client.op_p99_ms", percentile(all, 99))
	p50ref, p50tr := percentile(ref.rawMS, 50), percentile(ph.rawMS, 50)
	res.RawP50MS = p50ref
	layers.set("trace.overhead_pct", (p50tr-p50ref)/p50ref*100)
	var speeds []float64
	for _, r := range append(ref.rounds, ph.rounds...) {
		speeds = append(speeds, r.HostSpeed)
	}
	layers.set("host.stream_gbs", median(speeds)*streamRefGBs)
	for name, val := range layers {
		res.Metrics[name] = metricValue{val, perLayerUnits[name]}
	}
	res.Spans = tr.spans
	return nil
}

// absorb folds a phase and the verdict on its results into the pass totals.
// A checked result below the accuracy floor is a failed operation.
func (res *passResult) absorb(ph *phase, v verdict) {
	res.Rounds = append(res.Rounds, ph.rounds...)
	res.Samples += len(ph.latMS)
	res.Attempted += ph.attempted
	res.Failed += ph.failed + len(v.bad)
	res.Checked += v.checked
	res.Problems = append(res.Problems, ph.errs...)
	res.Problems = append(res.Problems, v.bad...)
}
