package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark builds or writes lives,
// relative to the repository root. It is listed in .gitignore.
const buildDir = ".bench_build"

// findRoot locates the repository root: the benchmark is started either
// from the root or (go run -C benchmark, go test) from its own directory.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "tcqrd", "main.go")); err != nil {
			return "", fmt.Errorf("no cmd/tcqrd beside BENCHMARK.json: %w", err)
		}
		return filepath.Abs(dir)
	}
	return "", errors.New("BENCHMARK.json not found in . or ..; run from the repository root or benchmark/")
}

// buildDaemon compiles cmd/tcqrd into the build directory and returns the
// binary's path and the wall time of the go build call. The go tool skips
// the link when the binary is up to date, so calling this on every run keeps
// the binary current with the sources at the cost of a cache lookup.
func buildDaemon(ctx context.Context, root string) (string, time.Duration, error) {
	out := filepath.Join(root, buildDir, "tcqrd")
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/tcqrd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/tcqrd: %w\n%s", err, msg)
	}
	return out, time.Since(t0), nil
}

// daemon is one tcqrd child process and the scratch directory it owns.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait has returned
	dir    string        // scratch: addr file, stderr log
	base   string        // http://host:port of the API
	debug  string        // http://host:port of the pprof listener
}

var pprofAddrRE = regexp.MustCompile(`msg="pprof listening" addr=(\S+)`)

// startDaemon launches tcqrd with every flag at its default except the
// three that make it drivable (-addr on a free loopback port, -addr-file,
// -debug-addr) plus -cache-dir when cacheDir is non-empty, and waits until
// /healthz answers. scratch must exist; the caller removes it.
func startDaemon(ctx context.Context, bin, scratch, cacheDir string) (*daemon, error) {
	addrFile := filepath.Join(scratch, "addr")
	logPath := filepath.Join(scratch, "stderr.log")
	_ = os.Remove(addrFile)
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-debug-addr", "127.0.0.1:0"}
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logFile
	// Should the benchmark itself be killed, the kernel takes the child
	// down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tcqrd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), dir: scratch}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	if err := d.awaitHealthy(ctx, addrFile, logPath); err != nil {
		_ = d.stop()
		return nil, fmt.Errorf("%w\n%s", err, d.stderrTail())
	}
	return d, nil
}

// awaitHealthy polls for the address file, the pprof address in the log,
// and a 200 from /healthz.
func (d *daemon) awaitHealthy(ctx context.Context, addrFile, logPath string) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return errors.New("tcqrd exited before becoming healthy")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.debug == "" {
			if b, err := os.ReadFile(logPath); err == nil {
				if m := pprofAddrRE.FindSubmatch(b); m != nil {
					d.debug = "http://" + string(m[1])
				}
			}
		}
		if d.base != "" && d.debug != "" {
			resp, err := http.Get(d.base + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("tcqrd not healthy within 15s")
}

// stop sends SIGTERM, reaps the child, and escalates to SIGKILL if the
// drain outlasts the daemon's own drain budget. Safe to call twice.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return nil
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return nil
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("tcqrd ignored SIGTERM for 15s; killed")
	}
}

// stderrTail returns the last lines of the child's log, for failure reports.
func (d *daemon) stderrTail() string {
	b, err := os.ReadFile(filepath.Join(d.dir, "stderr.log"))
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return "tcqrd stderr (tail):\n  " + strings.Join(lines, "\n  ")
}

// clockTick is USER_HZ, the unit of the CPU fields of /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuTime reads the child's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: non-numeric cpu fields")
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// memCounters are the two cumulative allocation counters of runtime.MemStats.
type memCounters struct {
	Mallocs    uint64
	TotalAlloc uint64
}

// memStats reads the child's allocation counters from the runtime.MemStats
// footer of its heap profile.
func (d *daemon) memStats() (memCounters, error) {
	body, err := httpGetText(d.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return memCounters{}, err
	}
	return parsePprofMemStats(body)
}

// parsePprofMemStats reads "# Mallocs = N" and "# TotalAlloc = N" from the
// text heap profile's footer.
func parsePprofMemStats(profile string) (memCounters, error) {
	var m memCounters
	var seen int
	sc := bufio.NewScanner(strings.NewReader(profile))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var name string
		var v uint64
		if n, _ := fmt.Sscanf(sc.Text(), "# %s = %d", &name, &v); n != 2 {
			continue
		}
		switch name {
		case "Mallocs":
			m.Mallocs, seen = v, seen|1
		case "TotalAlloc":
			m.TotalAlloc, seen = v, seen|2
		}
	}
	if seen != 3 {
		return m, errors.New("heap profile has no Mallocs/TotalAlloc footer")
	}
	return m, nil
}

// statz is the part of GET /statz the layer metrics read.
type statz struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Retired   int64 `json:"retired"`
		Rewarmed  int64 `json:"rewarmed"`
	} `json:"cache"`
	Coalescer struct {
		Batches int64 `json:"batches"`
	} `json:"coalescer"`
	Requests map[string]int64 `json:"requests"`
}

func parseStatz(body string) (statz, error) {
	var s statz
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		return s, fmt.Errorf("statz: %w", err)
	}
	return s, nil
}

// scrape is one reading of the daemon's two stats endpoints.
type scrape struct {
	statz   statz
	metrics map[string]float64
}

func (d *daemon) scrape() (scrape, error) {
	var s scrape
	body, err := httpGetText(d.base + "/statz")
	if err != nil {
		return s, err
	}
	if s.statz, err = parseStatz(body); err != nil {
		return s, err
	}
	if body, err = httpGetText(d.base + "/metrics"); err != nil {
		return s, err
	}
	s.metrics = parseMetricsText(body)
	return s, nil
}

// parseMetricsText maps every sample of a Prometheus text page to its
// value, keyed by the series as written: name or name{labels}.
func parseMetricsText(page string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(page))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func httpGetText(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}
