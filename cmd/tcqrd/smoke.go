package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tcqr/internal/wirefmt"
)

// runSmoke is the end-to-end check that the binary it is compiled into keeps
// the daemon's contract. For each row of smokeScenarios it re-executes that
// binary as daemon children on ephemeral loopback ports, with exactly the
// flags the row declares, drives them through the row's checks, and SIGTERMs
// them: every child must drain and exit 0 within 15 s. One line is printed
// per check. The exit code is non-zero if a check failed or a child did not
// start or did not exit cleanly (its log tail is printed). The temp directory
// holding the children's logs and spill files is removed on every way out;
// SIGINT or SIGTERM to the driver cancels ctx, which kills the children and
// fails the request in flight, so that way out is the ordinary one.
func runSmoke() int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "tcqrd-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	s := &smoker{ctx: ctx, bin: bin, dir: dir, client: &http.Client{Timeout: 60 * time.Second}}
	for _, sc := range smokeScenarios {
		fmt.Printf("== %s ==\n", sc.name)
		ds := s.start(sc)
		for _, run := range sc.checks {
			if !s.failed {
				run(s, ds)
			}
		}
		for _, d := range ds {
			d.stop()
		}
		if s.failed {
			fmt.Fprintf(os.Stderr, "SERVE SMOKE FAILED in scenario %q (interrupted: %v)\n", sc.name, ctx.Err() != nil)
			return 1
		}
	}
	fmt.Println("SERVE SMOKE OK")
	return 0
}

// scenario is one row of the smoke: the daemons it needs, each given as the
// flags it is started with beyond -addr, and the checks that drive them, in
// order. In a flag value $dir is the smoke's temp directory, $id the child's
// cluster member id and $peers the -peers list naming every child of the row.
type scenario struct {
	name    string
	daemons [][]string
	checks  []func(*smoker, []*daemon)
}

// childArgs renders the command line of child i of a row whose children
// listen on addrs.
func childArgs(flags []string, dir string, i int, addrs []string) []string {
	peers := make([]string, len(addrs))
	for j, a := range addrs {
		peers[j] = fmt.Sprintf("n%d=%s", j, a)
	}
	r := strings.NewReplacer("$dir", dir, "$id", fmt.Sprintf("n%d", i), "$peers", strings.Join(peers, ","))
	args := []string{"-addr", addrs[i]}
	for _, f := range flags {
		args = append(args, r.Replace(f))
	}
	return args
}

// smoker carries what the scenarios share: the children's binary and
// directory, the HTTP client, the pass/fail state, and the epoch the update
// checks left their series at (the restart scenario must find it there).
type smoker struct {
	ctx       context.Context
	bin, dir  string
	client    *http.Client
	failed    bool
	epochLeft uint64
}

// check prints one verdict line; detail is printed only on failure.
func (s *smoker) check(ok bool, what string, detail ...any) {
	if ok {
		fmt.Printf("ok   %s\n", what)
		return
	}
	s.failed = true
	if s.ctx.Err() == nil { // once interrupted, every check fails for that reason alone
		fmt.Fprintf(os.Stderr, "FAIL %s: %s", what, fmt.Sprintln(detail...))
	}
}

// daemon is one tcqrd child process.
type daemon struct {
	s      *smoker
	name   string // "<row> daemon <id>", for the lifecycle lines
	id     string // its $id: n0, n1, ...
	base   string // http://host:port
	log    string // file holding its stdout and stderr
	cmd    *exec.Cmd
	done   chan struct{} // closed once Wait has returned
	exit   error         // Wait's verdict; read after done
	killed bool          // SIGKILLed by its scenario: there is no drain to check
}

// start launches the row's children and waits until each answers /healthz.
// The kernel picks the ports and the listeners holding them are closed again
// before the children bind: a row's -peers list has to name every address
// before any child starts.
func (s *smoker) start(sc scenario) []*daemon {
	addrs := make([]string, len(sc.daemons))
	lns := make([]net.Listener, len(sc.daemons))
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, held := range lns[:i] {
				held.Close()
			}
			s.check(false, sc.name+" daemons get a free port each", err)
			return nil
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	var ds []*daemon
	for i, flags := range sc.daemons {
		id := fmt.Sprintf("n%d", i)
		d := &daemon{s: s, name: sc.name + " daemon " + id, id: id, base: "http://" + addrs[i],
			log: filepath.Join(s.dir, sc.name+"-"+id+".log"), done: make(chan struct{})}
		logFile, err := os.Create(d.log)
		if err == nil {
			d.cmd = exec.CommandContext(s.ctx, s.bin, childArgs(flags, s.dir, i, addrs)...)
			d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
			err = d.cmd.Start()
			logFile.Close()
		}
		if err != nil {
			s.check(false, d.name+" starts", err)
			return ds
		}
		go func() {
			d.exit = d.cmd.Wait()
			close(d.done)
		}()
		ds = append(ds, d)
	}
	for _, d := range ds {
		s.check(d.awaitHealthy(), d.name+" answers /healthz", "\n"+d.logTail())
	}
	return ds
}

// awaitHealthy polls /healthz until it answers 200, the child exits, or 10 s
// pass.
func (d *daemon) awaitHealthy() bool {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if d.get("/healthz").is(200) {
			return true
		}
		select {
		case <-d.done:
			return false
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// stop SIGTERMs the child and requires exit 0 within 15 s: the daemon's own
// drain budget is 10 s, and one that hangs past it is killed and reported.
// A child that died on its own before this fails the same check.
func (d *daemon) stop() {
	if d.killed {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it has exited, which done reports
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.kill()
		d.exit = fmt.Errorf("no exit within 15s of SIGTERM (%v after SIGKILL)", d.exit)
	}
	d.s.check(d.exit == nil, d.name+" drained and exited 0 on SIGTERM", d.exit, "\n"+d.logTail())
}

// kill is kill -9: no drain, no handoff, no spill flush.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	d.killed = true
}

// logTail returns the last lines the child wrote.
func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.log) // an unreadable log prints as an empty tail
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 80 {
		lines = lines[len(lines)-80:]
	}
	return "log tail of " + d.name + ":\n" + strings.Join(lines, "\n")
}

// obj is a JSON request body.
type obj = map[string]any

// reply is one HTTP answer: status, headers and raw body, plus every field
// the smoke reads from any endpoint's JSON, decoded when the body is JSON.
// One request fills the few fields its endpoint sends.
type reply struct {
	code int
	hdr  http.Header
	raw  []byte
	err  error

	Status     string    `json:"status"`
	Key        string    `json:"key"`
	BaseKey    string    `json:"base_key"`
	Cached     bool      `json:"cached"`
	Epoch      uint64    `json:"epoch"`
	Rows       int       `json:"rows"`
	Cols       int       `json:"cols"`
	Blocks     int       `json:"blocks"`
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	Session    string    `json:"session"`
	TTLMS      int64     `json:"ttl_ms"`
	Hazards    []struct {
		Action string `json:"action"`
	} `json:"hazards"`
	EngineStats struct {
		GemmCalls int64 `json:"gemm_calls"`
	} `json:"engine_stats"`
	Error struct {
		Code string `json:"code"`
	} `json:"error"`
}

// statz is what the smoke reads from /statz (its "hazards" is a map where an
// API answer's is a list, so it cannot share reply).
type statz struct {
	Pool struct {
		Workers  int   `json:"workers"`
		InFlight int64 `json:"in_flight"`
	} `json:"pool"`
	Cache struct {
		Hits     int64 `json:"hits"`
		Rewarmed int64 `json:"rewarmed"`
	} `json:"cache"`
	Timing map[string]struct {
		Count int64 `json:"count"`
	} `json:"timing"`
}

// is reports whether the exchange completed with this status.
func (r *reply) is(code int) bool { return r.err == nil && r.code == code }

// fails reports whether the answer is the typed JSON error envelope.
func (r *reply) fails(code int, errCode string) bool {
	return r.is(code) && r.Error.Code == errCode && strings.HasPrefix(r.hdr.Get("Content-Type"), "application/json")
}

// String is the failure detail of a check on r.
func (r *reply) String() string {
	body := r.raw
	if len(body) > 200 {
		body = append(body[:200:200], "..."...)
	}
	return fmt.Sprintf("code=%d err=%v content-type=%q body=%q", r.code, r.err, r.hdr.Get("Content-Type"), body)
}

// vector decodes a binary-frame answer's vector section (nil if it has none).
func (r *reply) vector() []float64 {
	secs, err := wirefmt.Decode(r.raw, nil)
	if v := wirefmt.FindSection(secs, wirefmt.TagVector); err == nil && v != nil {
		return v.Float64s()
	}
	return nil
}

// do sends one request; contentType and accept are omitted when empty. A
// JSON answer is decoded into out, or into the reply itself when out is nil.
func (d *daemon) do(method, path, contentType, accept string, body []byte, out any) *reply {
	r := &reply{}
	if out == nil {
		out = r
	}
	req, err := http.NewRequestWithContext(d.s.ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := d.s.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.code, r.hdr = resp.StatusCode, resp.Header
	r.raw, r.err = io.ReadAll(resp.Body)
	if r.err == nil && strings.HasPrefix(r.hdr.Get("Content-Type"), "application/json") {
		r.err = json.Unmarshal(r.raw, out)
	}
	return r
}

func (d *daemon) get(path string) *reply { return d.do(http.MethodGet, path, "", "", nil, nil) }

func (d *daemon) statz() (*reply, statz) {
	var z statz
	return d.do(http.MethodGet, "/statz", "", "", nil, &z), z
}

func (d *daemon) post(path string, body obj) *reply { return d.postAccept(path, "", body) }

// postAccept is post asking for the answer in the accept encoding.
func (d *daemon) postAccept(path, accept string, body obj) *reply {
	buf, err := json.Marshal(body)
	if err != nil {
		return &reply{err: err}
	}
	return d.do(http.MethodPost, path, "application/json", accept, buf, nil)
}

// postFrame sends meta and the float sections as one binary frame.
func (d *daemon) postFrame(path, accept string, meta obj, secs ...wirefmt.Section) *reply {
	mj, err := json.Marshal(meta)
	if err != nil {
		return &reply{err: err}
	}
	frame, err := wirefmt.AppendFrame(nil, append([]wirefmt.Section{wirefmt.JSONSection(mj)}, secs...)...)
	if err != nil {
		return &reply{err: err}
	}
	return d.do(http.MethodPost, path, wirefmt.ContentType, accept, frame, nil)
}

// metricLabelAbove reports whether any sample of the named family (exact
// name, or name{labels}) whose series contains labelSub has a value strictly
// greater than min.
func metricLabelAbove(exposition, name, labelSub string, min float64) bool {
	for _, v := range metricValues(exposition, name, labelSub) {
		if v > min {
			return true
		}
	}
	return false
}

// metricAbove is metricLabelAbove over every sample of the family.
func metricAbove(exposition, name string, min float64) bool {
	return metricLabelAbove(exposition, name, "", min)
}

// metricValues returns the value of every sample line of the named family
// whose series (name plus label set) contains labelSub.
func metricValues(exposition, name, labelSub string) []float64 {
	var vals []float64
	for _, line := range strings.Split(exposition, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		series := line[:i]
		if series != name && !(strings.HasPrefix(series, name+"{") && strings.HasSuffix(series, "}")) {
			continue // a comment, or a longer family name sharing the prefix
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil && strings.Contains(series, labelSub) {
			vals = append(vals, v)
		}
	}
	return vals
}

// wantMetric is one assertion on a /metrics scrape: some sample of family
// whose labels contain label exceeds above.
type wantMetric struct {
	what, family, label string
	above               float64
}

// scrape fetches d's /metrics and checks every want against the one text.
func (s *smoker) scrape(d *daemon, wants ...wantMetric) string {
	r := d.get("/metrics")
	s.check(r.is(200), "metrics returns 200", r)
	text := string(r.raw)
	for _, w := range wants {
		s.check(metricLabelAbove(text, w.family, w.label, w.above), w.what,
			"no sample of", w.family, w.label, "above", w.above)
	}
	return text
}

// wireMatrix is the API's column-major matrix.
type wireMatrix struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// smokeMatrix builds a deterministic m×n matrix with entries in [-0.5, 0.5);
// distinct seeds or shapes give distinct content hashes, so distinct keys.
func smokeMatrix(m, n int, seed uint64) wireMatrix {
	state := seed*0x9E3779B97F4A7C15 + 1
	data := make([]float64, m*n)
	for i := range data {
		state = state*6364136223846793005 + 1442695040888963407
		data[i] = float64(state>>11)/float64(uint64(1)<<53) - 0.5
	}
	return wireMatrix{Rows: m, Cols: n, Data: data}
}

// mulVec computes A·x.
func (a wireMatrix) mulVec(x []float64) []float64 {
	b := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			b[i] += a.Data[j*a.Rows+i] * x[j]
		}
	}
	return b
}

// stack returns a on top of below (equal column counts).
func (a wireMatrix) stack(below wireMatrix) wireMatrix {
	rows := a.Rows + below.Rows
	out := wireMatrix{Rows: rows, Cols: a.Cols, Data: make([]float64, rows*a.Cols)}
	for j := 0; j < a.Cols; j++ {
		copy(out.Data[j*rows:], a.Data[j*a.Rows:(j+1)*a.Rows])
		copy(out.Data[j*rows+a.Rows:], below.Data[j*below.Rows:(j+1)*below.Rows])
	}
	return out
}

// ramp is a known solution vector: x[j] = j mod period + offset.
func ramp(n, period int, offset float64) []float64 {
	x := make([]float64, n)
	for j := range x {
		x[j] = float64(j%period) + offset
	}
	return x
}

func maxAbsDiff(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1) // fails every tolerance
	}
	d := 0.0
	for i := range got {
		e := got[i] - want[i]
		if e < 0 {
			e = -e
		}
		if e > d {
			d = e
		}
	}
	return d
}
