package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"tcqr"
	"tcqr/internal/wirefmt"
)

// workload is one fixed set of inputs and the closed loop that drives them.
// The names are part of the benchmark's contract: later changes cite them.
type workload struct {
	name string
	why  string
	// warmup is the number of discarded operations per client that end
	// set-up (caches filled, pools grown, lazy initialisation done).
	warmup int
	// setup builds an instance from the seed: generate inputs, start the
	// program under test, load what the loop assumes is already there.
	setup func(ctx context.Context, env *env, seed int64) (instance, error)
}

// env is what every set-up shares: where the daemon binary is and whether
// sizes are cut down to smoke-test scale.
type env struct {
	root   string
	tcqrd  string
	quick  bool
	nproc  int
	buildS float64
}

// pick returns full, or small under -quick.
func (e *env) pick(full, small int) int {
	if e.quick {
		return small
	}
	return full
}

// instance is a set-up workload. One goroutine per client calls op in a
// closed loop: the next problem is sent only after x for the last one came
// back.
type instance interface {
	clients() int
	// op runs operation i of client c and returns the wall time of its
	// timed span (inputs derived for this op are prepared before the span
	// starts). What verify needs is retained. tr is nil when tracing is off.
	op(c, i int, tr *tracer) (time.Duration, error)
	// verify checks every retained result against the inputs, outside any
	// timed span, and forgets them.
	verify() verdict
	// cpuTime and memStats read the cumulative counters of the program
	// under test.
	cpuTime() (time.Duration, error)
	memStats() (memCounters, error)
	// beginTrace is called before the rounds of a traced pass; layers then
	// adds this workload's layer metrics. ops counts every operation since
	// beginTrace, traced or not: it is what counter deltas are divided by.
	beginTrace() error
	layers(ctx context.Context, tr *tracer, ops int, out layerSet) error
	close() error
}

// verdict is the outcome of checking retained results.
type verdict struct {
	minDigits float64  // +Inf when nothing was checked
	checked   int      // results examined
	bad       []string // one line per result below minGoodDigits
}

// minGoodDigits is the accuracy below which a returned x counts as a
// failed operation: the paper's claim is double-precision quality, and
// every workload sits near 12 digits at the seed commit.
const minGoodDigits = 9

func newVerdict() verdict { return verdict{minDigits: math.Inf(1)} }

func (v *verdict) note(digits float64, what string) {
	v.checked++
	if digits < v.minDigits {
		v.minDigits = digits
	}
	if digits < minGoodDigits || math.IsNaN(digits) {
		v.bad = append(v.bad, fmt.Sprintf("%s: %.2f digits", what, digits))
	}
}

var workloads = []workload{
	{
		name:   "lls-dense",
		why:    "the paper's headline: in-process dense least squares, all time in factorization and refinement, no serving code",
		warmup: 4,
		setup:  setupLLSDense,
	},
	{
		name:   "serve-hit",
		why:    "factor once, solve many: cached keys over binary frames, so refinement, coalescing wait and codec do the work and no factorization runs",
		warmup: 150,
		setup:  setupServeHit,
	},
	{
		name:   "serve-cold-tall",
		why:    "every request a cache miss on a tall-skinny inline matrix, so TSQR routing, frame decode, hashing and eviction do the work",
		warmup: 36,
		setup:  setupServeColdTall,
	},
	{
		name:   "serve-update-mix",
		why:    "the write path beside the read path: JSON append/downdate cycles with solves between, through epoch publish and disk spill",
		warmup: 12,
		setup:  setupServeUpdateMix,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------- lls-dense

// llsDense calls tcqr.SolveLeastSquares in-process on a pool of matrices
// with a fresh right-hand side per op.
type llsDense struct {
	pool []*tcqr.Matrix
	rhs  [][]float64
	kept []llsKept
	tr   llsTraceState
}

type llsKept struct {
	a, b int
	x    []float64
}

func setupLLSDense(_ context.Context, env *env, seed int64) (instance, error) {
	m, n := env.pick(2048, 256), env.pick(512, 64)
	w := &llsDense{}
	// One spectrum-controlled base matrix; the rest of the pool are row
	// rotations of it (same spectrum, different memory), which keeps set-up
	// to one Haar generation.
	base := condMatrix(rngFor(seed, "lls-dense/A"), m, n)
	w.pool = append(w.pool, base)
	for k := 1; k < 4; k++ {
		r := tcqr.NewMatrix(m, n)
		rotateRows(r, base, k*m/4+k)
		w.pool = append(w.pool, r)
	}
	rng := rngFor(seed, "lls-dense/b")
	for k := 0; k < 64; k++ {
		w.rhs = append(w.rhs, normalVec(rng, m))
	}
	return w, nil
}

func (w *llsDense) clients() int { return 1 }

func (w *llsDense) op(_, i int, tr *tracer) (time.Duration, error) {
	ai, bi := i%len(w.pool), i%len(w.rhs)
	a, b := w.pool[ai], w.rhs[bi]
	var (
		x   []float64
		err error
	)
	t0 := time.Now()
	if tr == nil {
		var res *tcqr.LeastSquaresResult
		if res, err = tcqr.SolveLeastSquares(a, b, tcqr.SolveOptions{}); err == nil {
			x = res.X
		}
	} else {
		x, err = w.tr.solve(tr, i, a, b)
	}
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	w.kept = append(w.kept, llsKept{ai, bi, x})
	return d, nil
}

func (w *llsDense) verify() verdict {
	v := newVerdict()
	for k, r := range w.kept {
		v.note(solveDigits(w.pool[r.a], r.x, w.rhs[r.b]), fmt.Sprintf("lls-dense result %d (matrix %d, rhs %d)", k, r.a, r.b))
	}
	w.kept = w.kept[:0]
	return v
}

func (w *llsDense) cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func (w *llsDense) memStats() (memCounters, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc}, nil
}

func (w *llsDense) beginTrace() error { return nil }
func (w *llsDense) close() error      { return nil }

// ------------------------------------------------------------ served common

// served is the part every daemon-backed workload shares: the child, one
// HTTP connection per client, and the stats scrape taken when the traced
// phase began.
type served struct {
	d       *daemon
	scratch string
	http    []*http.Client
	before  scrape
}

func newServed(ctx context.Context, env *env, nclients int, withCacheDir bool) (*served, error) {
	if err := os.MkdirAll(filepath.Join(env.root, buildDir), 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(filepath.Join(env.root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	s := &served{scratch: scratch}
	cacheDir := ""
	if withCacheDir {
		cacheDir = filepath.Join(scratch, "factors")
	}
	if s.d, err = startDaemon(ctx, env.tcqrd, scratch, cacheDir); err != nil {
		os.RemoveAll(scratch)
		return nil, err
	}
	for c := 0; c < nclients; c++ {
		// A transport per client: one connection each, never shared.
		s.http = append(s.http, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   60 * time.Second,
		})
	}
	return s, nil
}

func (s *served) clients() int { return len(s.http) }

func (s *served) cpuTime() (time.Duration, error) { return s.d.cpuTime() }
func (s *served) memStats() (memCounters, error)  { return s.d.memStats() }

// close stops and reaps the child and removes its scratch directory. The
// child's stderr is surfaced only when stopping it went wrong.
func (s *served) close() error {
	err := s.d.stop()
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, s.d.stderrTail())
	}
	for _, c := range s.http {
		c.CloseIdleConnections()
	}
	if rerr := os.RemoveAll(s.scratch); err == nil {
		err = rerr
	}
	return err
}

// post sends one request on client c's connection and returns the body and
// the stage durations the server reported. Anything but a 200 is an error
// carrying the server's explanation.
func (s *served) post(c int, path, contentType string, body []byte) ([]byte, map[string]float64, error) {
	req, err := http.NewRequest(http.MethodPost, s.d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := s.http[c].Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		if len(out) > 300 {
			out = out[:300]
		}
		return nil, nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, parseServerTiming(resp.Header.Get("Server-Timing")), nil
}

// traceStages records the server-reported stages of one request as spans
// under parent. rename maps a stage to its span name.
func traceStages(tr *tracer, op int, parent string, start time.Time, stages map[string]float64, rename func(string) string) {
	for stage, ms := range stages {
		tr.add(op, rename(stage), parent, start, time.Duration(ms*1e6))
	}
}

func serveSpanName(stage string) string { return "serve." + stage }

// factorize uploads a as a binary frame and returns its cache key.
func (s *served) factorize(a *tcqr.Matrix) (string, error) {
	frame, err := wirefmt.AppendFrame(nil, wirefmt.JSONSection([]byte("{}")),
		wirefmt.MatrixSection(a.Rows, a.Cols, a.Data))
	if err != nil {
		return "", err
	}
	body, _, err := s.post(0, "/v1/factorize", wirefmt.ContentType, frame)
	if err != nil {
		return "", err
	}
	var meta struct {
		Key string `json:"key"`
	}
	secs, err := wirefmt.Decode(body, nil)
	if err != nil || len(secs) == 0 {
		return "", fmt.Errorf("factorize response: %v", err)
	}
	if err := json.Unmarshal(secs[0].Raw, &meta); err != nil || meta.Key == "" {
		return "", fmt.Errorf("factorize response has no key: %v", err)
	}
	return meta.Key, nil
}

// frameX copies the solution vector out of a binary solve response.
func frameX(body []byte) ([]float64, error) {
	secs, err := wirefmt.Decode(body, nil)
	if err != nil {
		return nil, err
	}
	sec := wirefmt.FindSection(secs, wirefmt.TagVector)
	if sec == nil {
		return nil, fmt.Errorf("solve response frame has no vector section")
	}
	return append([]float64(nil), sec.Float64s()...), nil
}

// solveFrame encodes a binary solve request: by key when key is set, with
// the matrix inline otherwise.
func solveFrame(dst []byte, key string, a *tcqr.Matrix, b []float64) ([]byte, error) {
	if key != "" {
		meta, _ := json.Marshal(map[string]string{"key": key})
		return wirefmt.AppendFrame(dst, wirefmt.JSONSection(meta), wirefmt.VectorSection(b))
	}
	return wirefmt.AppendFrame(dst, wirefmt.JSONSection([]byte("{}")),
		wirefmt.MatrixSection(a.Rows, a.Cols, a.Data), wirefmt.VectorSection(b))
}

// beginTrace takes the "before" scrape of a traced phase.
func (s *served) beginTrace() error {
	var err error
	s.before, err = s.d.scrape()
	return err
}

// servedLayers fills the layer metrics every daemon-backed workload
// reports: per-op medians of the Server-Timing stages, the client-side
// remainder, and ratios from the /statz and /metrics deltas over the phase.
func (s *served) servedLayers(tr *tracer, ops int, out layerSet) error {
	after, err := s.d.scrape()
	if err != nil {
		return err
	}
	perOp := tr.perOp()
	stageSum := make([]float64, len(perOp.ops))
	for _, name := range []string{"serve.queue", "serve.solve", "serve.encode", "serve.factorize", "serve.update_append", "serve.update_remove"} {
		col := perOp.column(name)
		out.set(name+"_ms", median(col))
		for i, v := range col {
			stageSum[i] += v
		}
	}
	other := perOp.column("client.op")
	for i := range other {
		other[i] -= stageSum[i]
	}
	out.set("serve.other_ms", median(other))

	b, a := s.before, after
	solves := float64(a.statz.Requests["solve"] - b.statz.Requests["solve"])
	if batches := float64(a.statz.Coalescer.Batches - b.statz.Coalescer.Batches); batches > 0 {
		out.set("serve.coalesce_batch_mean", solves/batches)
	}
	hits := float64(a.statz.Cache.Hits - b.statz.Cache.Hits)
	if misses := float64(a.statz.Cache.Misses - b.statz.Cache.Misses); hits+misses > 0 {
		out.set("serve.cache_hit_ratio", hits/(hits+misses))
	}
	n := float64(ops)
	out.set("serve.cache_evictions_per_op", float64(a.statz.Cache.Evictions-b.statz.Cache.Evictions)/n)
	out.set("serve.cache_retired", float64(a.statz.Cache.Retired-b.statz.Cache.Retired)/n)
	delta := func(series string) float64 { return a.metrics[series] - b.metrics[series] }
	for metric, stage := range map[string]string{"tsqr.block_ms": "block_factor", "tsqr.reduce_ms": "tree_reduce", "tsqr.recover_ms": "q_recover"} {
		if cnt := delta(`tcqrd_tsqr_stage_seconds_count{stage="` + stage + `"}`); cnt > 0 {
			out.set(metric, delta(`tcqrd_tsqr_stage_seconds_sum{stage="`+stage+`"}`)/cnt*1e3)
		}
	}
	out.set("serve.spill_writes", delta("tcqrd_spill_writes_total")/n)
	out.set("serve.spill_dropped", delta("tcqrd_spill_dropped_total")/n)
	out.set("serve.spill_mb", a.metrics["tcqrd_spill_bytes"]/1e6)
	return nil
}

// ---------------------------------------------------------------- serve-hit

// serveHit solves by key against factorizations uploaded in set-up.
type serveHit struct {
	*served
	mats   []*tcqr.Matrix
	rhs    [][]float64
	frames [][]byte  // frames[j] asks for rhs[j] against key j%len(mats)
	sched  [][]int32 // per client: which frame each op sends
	kept   [][]hitKept
}

type hitKept struct {
	j int
	x []float64
}

// hitCheckEvery is the share of serve-hit and serve-update-mix solves whose
// result is retained and checked: 1 in 16.
const hitCheckEvery = 16

func setupServeHit(ctx context.Context, env *env, seed int64) (instance, error) {
	m, n := env.pick(1024, 128), env.pick(256, 32)
	nkeys, npool := env.pick(8, 4), env.pick(256, 32)
	nclients := 2
	if env.nproc < 2 {
		nclients = 1
	}
	s, err := newServed(ctx, env, nclients, false)
	if err != nil {
		return nil, err
	}
	w := &serveHit{served: s, kept: make([][]hitKept, nclients)}
	rng := rngFor(seed, "serve-hit/A")
	keys := make([]string, nkeys)
	for k := range keys {
		a := condMatrix(rng, m, n)
		w.mats = append(w.mats, a)
		if keys[k], err = s.factorize(a); err != nil {
			s.close()
			return nil, err
		}
	}
	rng = rngFor(seed, "serve-hit/b")
	for j := 0; j < npool; j++ {
		b := normalVec(rng, m)
		frame, err := solveFrame(nil, keys[j%nkeys], nil, b)
		if err != nil {
			s.close()
			return nil, err
		}
		w.rhs = append(w.rhs, b)
		w.frames = append(w.frames, frame)
	}
	// Each client walks its own random sequence of frames, so two clients
	// land on the same key (and coalesce) as often as independent callers
	// over this many keys would.
	for c := 0; c < nclients; c++ {
		rng := rngFor(seed, fmt.Sprintf("serve-hit/schedule/%d", c))
		sched := make([]int32, 4096)
		for i := range sched {
			sched[i] = int32(rng.Intn(npool))
		}
		w.sched = append(w.sched, sched)
	}
	return w, nil
}

func (w *serveHit) op(c, i int, tr *tracer) (time.Duration, error) {
	j := int(w.sched[c][i%len(w.sched[c])])
	t0 := time.Now()
	body, stages, err := w.post(c, "/v1/solve", wirefmt.ContentType, w.frames[j])
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if tr != nil {
		op := opID(c, i)
		tr.add(op, "client.op", "", t0, d)
		traceStages(tr, op, "client.op", t0, stages, serveSpanName)
	}
	if i%hitCheckEvery == 0 {
		x, err := frameX(body)
		if err != nil {
			return d, err
		}
		w.kept[c] = append(w.kept[c], hitKept{j, x})
	}
	return d, nil
}

func (w *serveHit) verify() verdict {
	v := newVerdict()
	for c := range w.kept {
		for k, r := range w.kept[c] {
			a := w.mats[r.j%len(w.mats)]
			v.note(solveDigits(a, r.x, w.rhs[r.j]), fmt.Sprintf("serve-hit client %d kept result %d (key %d, rhs %d)", c, k, r.j%len(w.mats), r.j))
		}
		w.kept[c] = w.kept[c][:0]
	}
	return v
}

func (w *serveHit) layers(_ context.Context, tr *tracer, ops int, out layerSet) error {
	return w.servedLayers(tr, ops, out)
}

// ---------------------------------------------------------- serve-cold-tall

// serveColdTall sends a different row rotation of one tall matrix on every
// op, so every body hashes to a new key while the answer stays x0.
type serveColdTall struct {
	*served
	a0    *tcqr.Matrix
	b0    []float64
	rot   *tcqr.Matrix
	rotB  []float64
	frame []byte
	kept  [][]float64
}

func setupServeColdTall(ctx context.Context, env *env, seed int64) (instance, error) {
	// Both sizes satisfy the daemon's own TSQR predicate (rows >= 2048 and
	// rows >= 4·cols), so the default routing decides the path.
	m, n := env.pick(4096, 2048), env.pick(128, 16)
	s, err := newServed(ctx, env, 1, false)
	if err != nil {
		return nil, err
	}
	w := &serveColdTall{served: s}
	w.a0 = condMatrix(rngFor(seed, "serve-cold-tall/A"), m, n)
	w.b0 = normalVec(rngFor(seed, "serve-cold-tall/b"), m)
	w.rot = tcqr.NewMatrix(m, n)
	w.rotB = make([]float64, m)
	return w, nil
}

func (w *serveColdTall) op(c, i int, tr *tracer) (time.Duration, error) {
	r := 37 * i % w.a0.Rows
	rotateRows(w.rot, w.a0, r)
	rotateVec(w.rotB, w.b0, r)
	var err error
	if w.frame, err = solveFrame(w.frame[:0], "", w.rot, w.rotB); err != nil {
		return 0, err
	}
	t0 := time.Now()
	body, stages, err := w.post(c, "/v1/solve", wirefmt.ContentType, w.frame)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if tr != nil {
		op := opID(c, i)
		tr.add(op, "client.op", "", t0, d)
		traceStages(tr, op, "client.op", t0, stages, serveSpanName)
	}
	x, err := frameX(body)
	if err != nil {
		return d, err
	}
	w.kept = append(w.kept, x)
	return d, nil
}

func (w *serveColdTall) verify() verdict {
	v := newVerdict()
	for k, x := range w.kept {
		// Row rotation leaves the scaled gradient unchanged, so every
		// response is checked against the unrotated problem.
		v.note(solveDigits(w.a0, x, w.b0), fmt.Sprintf("serve-cold-tall result %d", k))
	}
	w.kept = w.kept[:0]
	return v
}

func (w *serveColdTall) layers(_ context.Context, tr *tracer, ops int, out layerSet) error {
	return w.servedLayers(tr, ops, out)
}

// --------------------------------------------------------- serve-update-mix

// serveUpdateMix cycles append → 2 solves → downdate → 2 solves over a few
// key series, in JSON, against a daemon that spills to disk.
type serveUpdateMix struct {
	*served
	env    *env
	series []updSeries
	nsolve int
	kept   []updKept
}

type updSeries struct {
	key        string
	a          *tcqr.Matrix
	blocks     []*tcqr.Matrix
	appendBody [][]byte
	removeBody []byte
	rhs        [][]float64 // length rows+blockRows; the short solves use a prefix
	solveLong  [][]byte
	solveShort [][]byte
}

type updKept struct {
	series, block, rhs int // block < 0: solved against the base matrix
	x                  []float64
}

const (
	updBlocks = 4
	updRHS    = 8
)

func setupServeUpdateMix(ctx context.Context, env *env, seed int64) (instance, error) {
	m, n := env.pick(2048, 256), env.pick(128, 16)
	k := env.pick(16, 4)
	nseries := env.pick(4, 2)
	s, err := newServed(ctx, env, 1, true)
	if err != nil {
		return nil, err
	}
	w := &serveUpdateMix{served: s, env: env}
	for si := 0; si < nseries; si++ {
		rng := rngFor(seed, fmt.Sprintf("serve-update-mix/%d", si))
		sr := updSeries{a: condMatrix(rng, m, n)}
		if sr.key, err = s.factorize(sr.a); err != nil {
			s.close()
			return nil, err
		}
		scale := elementRMS(sr.a)
		for bi := 0; bi < updBlocks; bi++ {
			blk := normalMatrix(rng, k, n, scale)
			sr.blocks = append(sr.blocks, blk)
			sr.appendBody = append(sr.appendBody, mustJSON(map[string]any{
				"key":    sr.key,
				"append": map[string]any{"rows": k, "cols": n, "data": blk.Data},
			}))
		}
		sr.removeBody = mustJSON(map[string]any{"key": sr.key, "remove_rows": k})
		for bi := 0; bi < updRHS; bi++ {
			b := normalVec(rng, m+k)
			sr.rhs = append(sr.rhs, b)
			sr.solveLong = append(sr.solveLong, mustJSON(map[string]any{"key": sr.key, "b": b}))
			sr.solveShort = append(sr.solveShort, mustJSON(map[string]any{"key": sr.key, "b": b[:m]}))
		}
		w.series = append(w.series, sr)
	}
	return w, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings, ints and finite floats are passed
	}
	return b
}

func (w *serveUpdateMix) op(c, i int, tr *tracer) (time.Duration, error) {
	si := i % len(w.series)
	sr := &w.series[si]
	cycle := i / len(w.series)
	blk := cycle % updBlocks
	op := opID(c, i)
	t0 := time.Now()
	send := func(path, stageName string, body []byte) ([]byte, error) {
		t := time.Now()
		out, stages, err := w.post(c, path, "application/json", body)
		if err == nil && tr != nil {
			traceStages(tr, op, "client.op", t, stages, func(stage string) string {
				if stage == "update" {
					return stageName
				}
				return serveSpanName(stage)
			})
		}
		return out, err
	}
	solve := func(block int, bodies [][]byte) error {
		ri := w.nsolve % updRHS
		out, err := send("/v1/solve", "", bodies[ri])
		if err != nil {
			return err
		}
		if w.nsolve%hitCheckEvery == 0 {
			var resp struct {
				X []float64 `json:"x"`
			}
			if err := json.Unmarshal(out, &resp); err != nil {
				return err
			}
			w.kept = append(w.kept, updKept{si, block, ri, resp.X})
		}
		w.nsolve++
		return nil
	}
	update := func(stageName string, body []byte) error {
		_, err := send("/v1/update", stageName, body)
		return err
	}
	err := update("serve.update_append", sr.appendBody[blk])
	for k := 0; k < 2 && err == nil; k++ {
		err = solve(blk, sr.solveLong)
	}
	if err == nil {
		err = update("serve.update_remove", sr.removeBody)
	}
	for k := 0; k < 2 && err == nil; k++ {
		err = solve(-1, sr.solveShort)
	}
	if err != nil {
		return time.Since(t0), err
	}
	d := time.Since(t0)
	if tr != nil {
		tr.add(op, "client.op", "", t0, d)
	}
	return d, nil
}

func (w *serveUpdateMix) verify() verdict {
	v := newVerdict()
	for k, r := range w.kept {
		sr := &w.series[r.series]
		a, b := sr.a, sr.rhs[r.rhs][:sr.a.Rows]
		if r.block >= 0 {
			a, b = stackRows(sr.a, sr.blocks[r.block]), sr.rhs[r.rhs]
		}
		v.note(solveDigits(a, r.x, b), fmt.Sprintf("serve-update-mix kept solve %d (series %d, block %d, rhs %d)", k, r.series, r.block, r.rhs))
	}
	w.kept = w.kept[:0]
	return v
}

// layers adds the restart measurement to the common set: stop the daemon,
// start it again on the same -cache-dir, and read how long the rewarm took
// and how many entries it adopted.
func (w *serveUpdateMix) layers(ctx context.Context, tr *tracer, ops int, out layerSet) error {
	if err := w.servedLayers(tr, ops, out); err != nil {
		return err
	}
	if err := w.d.stop(); err != nil {
		return fmt.Errorf("%w\n%s", err, w.d.stderrTail())
	}
	t0 := time.Now()
	d, err := startDaemon(ctx, w.env.tcqrd, w.scratch, filepath.Join(w.scratch, "factors"))
	if err != nil {
		return fmt.Errorf("restart on the same -cache-dir: %w", err)
	}
	out.set("spill.rewarm_s", time.Since(t0).Seconds())
	w.d = d
	after, err := d.scrape()
	if err != nil {
		return err
	}
	out.set("spill.rewarm_entries", float64(after.statz.Cache.Rewarmed))
	return nil
}

// opID is the identifier the spans of one operation share.
func opID(c, i int) int { return c<<24 | i }

// runClients runs fn once per client concurrently and waits for all.
func runClients(n int, fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}
