// Command benchmark is the repository's one fixed benchmark: four closed-loop
// workloads, seven bounded end-to-end metrics plus the failure count, and a
// per-layer budget measured from outside the program under test. See
// README.md in this directory for the tables; BENCHMARK.json at the
// repository root for the bounds.
//
// One workload, one pass (the form BENCHMARK.json's command takes):
//
//	go run -C benchmark . --workload serve-hit --seed 1 --seconds 12 --trace 0
//
// prints the pass's metrics and, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
// the end-to-end metrics, --trace 1 the per-layer metrics and the kernel
// probe.
//
// The whole suite (every workload untraced then traced, the probe once):
//
//	go run -C benchmark . -seed 1 -out out.json
//	go run -C benchmark . -repeat 10           # on ten seeds, and how far the runs disagree
//	go run -C benchmark . -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main without the process exit, so the smoke test can call it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run one pass of this workload and print the result object (empty = the whole suite)")
		seed         = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds      = fs.Float64("seconds", 0, "measured time per pass (0 = run_seconds of BENCHMARK.json)")
		trace        = fs.Int("trace", 0, "with -workload: 0 = untraced pass, end-to-end metrics; 1 = traced pass, per-layer metrics and kernel probe")
		out          = fs.String("out", "", "suite mode: write the full report, spans included, to this file")
		repeat       = fs.Int("repeat", 1, "suite mode: run the suite this many times, on seeds seed, seed+1, …, and report how far the runs disagree per metric")
		compare      = fs.Bool("compare", false, "compare two suite reports: -compare A.json B.json")
		quick        = fs.Bool("quick", false, "smoke-test sizes: small matrices, three warm-up ops, three probe repetitions")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two report files"))
		}
		regressed, err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	env := &env{root: root, quick: *quick, nproc: runtime.NumCPU()}
	var build time.Duration
	if env.tcqrd, build, err = buildDaemon(ctx, root); err != nil {
		return fail(err)
	}
	env.buildS = build.Seconds()
	hdr := newHeader(root, *seed, *seconds, env)
	hdr.print(stdout)
	if env.nproc < 2 {
		fmt.Fprintln(stderr, "benchmark: warning: nproc < 2: serve-hit runs one client instead of two, and client and server share the one core")
	}

	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := runPass(ctx, env, w, *seed, *seconds, *trace != 0, true)
		if err != nil {
			return fail(err)
		}
		res.print(stdout)
		res.printProblems(stderr)
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return 1
		}
		return 0
	}

	var reports []*report
	for k := 0; k < *repeat; k++ {
		rep, err := runSuite(ctx, env, hdr, *seed+int64(k), *seconds, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		reports = append(reports, rep)
	}
	if *out != "" {
		// One file holds the passes of every repetition, so that -compare
		// sees each side's own scatter.
		all := &report{Header: hdr}
		for _, rep := range reports {
			all.Passes = append(all.Passes, rep.Passes...)
		}
		if err := all.write(*out); err != nil {
			return fail(err)
		}
	}
	ok := true
	for _, rep := range reports {
		ok = ok && rep.correct()
	}
	if *repeat > 1 && !printDisagreement(stdout, spec, reports) {
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}

// header records where and how a report was produced.
type header struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_pass"`
	Quick      bool    `json:"quick,omitempty"`
	Commit     string  `json:"git_commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	Go         string  `json:"go_version"`
	BuildS     float64 `json:"build_s"`
}

func newHeader(root string, seed int64, seconds float64, env *env) header {
	h := header{
		Seed: seed, Seconds: seconds, Quick: env.quick,
		Commit: "unknown", NProc: env.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Go: runtime.Version(), BuildS: env.buildS,
	}
	// A checkout made without git (an archive) has no commit to name.
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# tcqr benchmark  seed=%d  seconds/pass=%g  commit=%s  nproc=%d  GOMAXPROCS=%d  %s  cpu=%q  build=%.2fs\n",
		h.Seed, h.Seconds, h.Commit, h.NProc, h.GOMAXPROCS, h.Go, h.CPU, h.BuildS)
}

// print writes every metric of the pass by name with its unit, then the
// counts a reader needs to judge them.
func (res *passResult) print(w io.Writer) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer"
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-17s %-10s %-28s %14.6g %s\n", res.Workload, kind, name, m.Value, m.Unit)
	}
	ops, speeds := make([]string, len(res.Rounds)), make([]string, len(res.Rounds))
	for i, r := range res.Rounds {
		ops[i], speeds[i] = fmt.Sprint(r.Ops), fmt.Sprintf("%.2f", r.HostSpeed)
	}
	fmt.Fprintf(w, "%-17s %-10s clients=%d samples=%d ops/round=[%s] attempted=%d failed=%d checked=%d fail_ratio=%g wall=%.1fs\n",
		res.Workload, kind, res.Clients, res.Samples, strings.Join(ops, " "), res.Attempted, res.Failed, res.Checked, res.FailRatio, res.WallS)
	fmt.Fprintf(w, "%-17s %-10s as measured: op_p50_ms=%.4g setup_s=%.3g; host speed per round=[%s] of reference\n",
		res.Workload, kind, res.RawP50MS, median(res.SetupRawS), strings.Join(speeds, " "))
}

// printProblems names the offending operations of an incorrect pass.
func (res *passResult) printProblems(w io.Writer) {
	if res.Correct {
		return
	}
	fmt.Fprintf(w, "benchmark: %s: INCORRECT: %d of %d operations failed (%d results checked)\n", res.Workload, res.Failed, res.Attempted, res.Checked)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "benchmark:   %s\n", p)
	}
}

// report is the suite's output file.
type report struct {
	Header header        `json:"header"`
	Passes []*passResult `json:"passes"`
}

func (r *report) correct() bool {
	for _, p := range r.Passes {
		if !p.Correct {
			return false
		}
	}
	return true
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSuite runs every workload untraced then traced; the kernel probe rides
// on the last traced pass, since it does not depend on the workload.
func runSuite(ctx context.Context, env *env, hdr header, seed int64, seconds float64, stdout, stderr io.Writer) (*report, error) {
	rep := &report{Header: hdr}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := runPass(ctx, env, w, seed, seconds, traced, traced && i == len(workloads)-1)
			if err != nil {
				return nil, err
			}
			res.print(stdout)
			res.printProblems(stderr)
			rep.Passes = append(rep.Passes, res)
		}
	}
	return rep, nil
}
