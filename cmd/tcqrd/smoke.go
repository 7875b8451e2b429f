package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"tcqr/internal/wirefmt"
)

// runSmoke drives a running tcqrd through the API contract: factorize
// (cold, then cached), concurrent solves that should coalesce, a
// hazard-triggering matrix under both policies, malformed inputs, and the
// introspection endpoints. It prints one line per check and returns a
// non-zero exit code if anything deviates. scripts/serve_smoke.sh runs it
// against a freshly started daemon.
func runSmoke(base string) int {
	s := &smoker{base: base, client: &http.Client{Timeout: 60 * time.Second}}

	// Liveness first: nothing else is meaningful if the daemon is down.
	var health struct {
		Status string `json:"status"`
	}
	code, err := s.get("/healthz", &health)
	s.check(err == nil && code == 200 && health.Status == "ok",
		"healthz returns 200 ok", "code=%d status=%q err=%v", code, health.Status, err)

	// Cold factorize, then the identical request again: the second must hit
	// the cache.
	m, n := 96, 24
	mat := smokeMatrix(m, n, 1)
	var fr struct {
		Key     string `json:"key"`
		Cached  bool   `json:"cached"`
		Hazards []any  `json:"hazards"`
	}
	code, err = s.post("/v1/factorize", map[string]any{"matrix": mat}, &fr)
	s.check(err == nil && code == 200 && fr.Key != "" && !fr.Cached && len(fr.Hazards) == 0,
		"cold factorize succeeds with a key and no hazards",
		"code=%d key=%q cached=%v hazards=%d err=%v", code, fr.Key, fr.Cached, len(fr.Hazards), err)
	key := fr.Key
	code, err = s.post("/v1/factorize", map[string]any{"matrix": mat}, &fr)
	s.check(err == nil && code == 200 && fr.Cached,
		"repeat factorize is a cache hit", "code=%d cached=%v err=%v", code, fr.Cached, err)

	// A "method":"none" solve on the idle daemon: it must ride alone and come
	// back unrefined. The coalesced pair below has to match it bit for bit.
	type noneOut struct {
		X          []float64 `json:"x"`
		Iterations int       `json:"iterations"`
		Batched    int       `json:"batched"`
	}
	noneX := make([]float64, n)
	for j := range noneX {
		noneX[j] = float64(j % 5)
	}
	noneBody := map[string]any{"key": key, "b": matVec(mat, noneX),
		"options": map[string]any{"method": "none"}}
	var alone noneOut
	code, err = s.post("/v1/solve", noneBody, &alone)
	s.check(err == nil && code == 200 && alone.Batched == 1 && alone.Iterations == 0,
		"solo method=none solve is unrefined",
		"code=%d batched=%d iterations=%d err=%v", code, alone.Batched, alone.Iterations, err)

	// Coalescing. The daemon has no window to wait out: a batch gathers
	// exactly while it waits for a worker, so the client makes the workers
	// busy. The daemon under smoke runs one (scripts/serve_smoke.sh passes
	// -workers 1); the slowest request the client has — the cold 2048x256
	// tc-ec factorize, whose answer is checked further down — holds it, and
	// once /statz shows that factorization running the solves sent next park
	// behind it. The matrix is tall-skinny, and 256 columns is wide enough to
	// split, so the projection GEMMs reach the engine: the engine a request
	// names factors it at every shape.
	ecMat := smokeMatrix(2048, 256, 1)
	var ecr, fpr struct {
		Key         string `json:"key"`
		Hazards     []any  `json:"hazards"`
		EngineStats struct {
			GemmCalls int64 `json:"gemm_calls"`
		} `json:"engine_stats"`
	}
	var (
		ecCode int
		ecErr  error
		ecDone = make(chan struct{})
	)
	go func() {
		defer close(ecDone)
		ecCode, ecErr = s.post("/v1/factorize",
			map[string]any{"matrix": ecMat, "config": map[string]any{"engine": "tc-ec"}}, &ecr)
	}()
	var pz struct {
		Pool struct {
			Workers  int   `json:"workers"`
			InFlight int64 `json:"in_flight"`
		} `json:"pool"`
	}
poll:
	for pz.Pool.InFlight < 1 {
		if code, err = s.get("/statz", &pz); err != nil || code != 200 {
			break
		}
		select {
		case <-ecDone: // over before it was ever seen running; the check below says so
			break poll
		case <-time.After(time.Millisecond):
		}
	}
	s.check(pz.Pool.Workers == 1 && pz.Pool.InFlight >= 1,
		"the tall factorize holds the daemon's one worker",
		"pool.workers=%d pool.in_flight=%d: the coalescing checks below need the daemon started with -workers 1 and its worker busy",
		pz.Pool.Workers, pz.Pool.InFlight)

	// Eight solves by key against known right-hand sides plus the
	// method=none solve twice, all parked behind the held worker: every
	// column must come back accurate, the eight must share a multi-RHS call,
	// and the pair must be one batch of two that matches the solo answer —
	// the answer may not depend on who else rode in the batch.
	const clients = 8
	type solveOut struct {
		code    int
		err     error
		x       []float64
		batched int
		timing  string
		wantX   []float64
	}
	outs := make([]solveOut, clients)
	var pair [2]noneOut
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			xTrue := make([]float64, n)
			for j := range xTrue {
				xTrue[j] = float64(i + j%5)
			}
			b := matVec(mat, xTrue)
			var sr struct {
				X       []float64 `json:"x"`
				Batched int       `json:"batched"`
			}
			code, hdr, err := s.postHdr("/v1/solve", map[string]any{"key": key, "b": b}, &sr)
			outs[i] = solveOut{code: code, err: err, x: sr.X, batched: sr.Batched,
				timing: hdr.Get("Server-Timing"), wantX: xTrue}
		}(i)
	}
	for i := range pair {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code, err := s.post("/v1/solve", noneBody, &pair[i]); err != nil || code != 200 {
				pair[i].Batched = -1
			}
		}(i)
	}
	wg.Wait()
	maxBatched := 0
	for i, o := range outs {
		s.check(o.err == nil && o.code == 200, fmt.Sprintf("concurrent solve %d succeeds", i),
			"code=%d err=%v", o.code, o.err)
		if o.code == 200 {
			s.check(maxAbsDiff(o.x, o.wantX) < 1e-6, fmt.Sprintf("solve %d is accurate", i),
				"max |x-x*| = %g", maxAbsDiff(o.x, o.wantX))
			s.check(o.timing != "", fmt.Sprintf("solve %d carries Server-Timing", i), "header empty")
		}
		if o.batched > maxBatched {
			maxBatched = o.batched
		}
	}
	s.check(maxBatched >= 2, "concurrent same-key solves coalesced",
		"largest batch was %d; expected >= 2 (solves batch while they wait for a worker: did the tall factorize finish before the burst arrived?)", maxBatched)
	for i, o := range pair {
		s.check(o.Batched == 2 && o.Iterations == 0 && maxAbsDiff(o.X, alone.X) == 0,
			fmt.Sprintf("coalesced method=none solve %d matches the solo answer", i),
			"batched=%d iterations=%d max |x-x_solo| = %g (batched=1 means the pair did not park behind the tall factorize together)",
			o.Batched, o.Iterations, maxAbsDiff(o.X, alone.X))
	}

	// Binary wire protocol (DESIGN.md §12): the same warm solve served as a
	// zero-copy frame, content negotiation across mixed encodings, and the
	// JSON error envelope on a malformed frame.
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64(j%7) - 3
	}
	bRHS := matVec(mat, xTrue)
	solveMeta, _ := json.Marshal(map[string]any{"key": key})
	frame, ferr := wirefmt.AppendFrame(nil, wirefmt.JSONSection(solveMeta), wirefmt.VectorSection(bRHS))
	s.check(ferr == nil, "solve request encodes as a frame", "err=%v", ferr)
	body, ct, code, err := s.postRaw("/v1/solve", wirefmt.ContentType, "", frame)
	s.check(err == nil && code == 200 && ct == wirefmt.ContentType,
		"binary solve answers 200 with a frame", "code=%d content-type=%q err=%v", code, ct, err)
	var xBin []float64
	secs, derr := wirefmt.Decode(body, nil)
	if derr == nil {
		if v := wirefmt.FindSection(secs, wirefmt.TagVector); v != nil {
			xBin = v.Float64s()
		}
	}
	s.check(derr == nil && maxAbsDiff(xBin, xTrue) < 1e-6,
		"binary solve is accurate", "decode err=%v max |x-x*| = %g", derr, maxAbsDiff(xBin, xTrue))

	// Mixed encodings: a JSON request may ask for a frame response via
	// Accept, and a binary request may ask for JSON back.
	jbody, _ := json.Marshal(map[string]any{"key": key, "b": bRHS})
	_, ct, code, err = s.postRaw("/v1/solve", "application/json", wirefmt.ContentType, jbody)
	s.check(err == nil && code == 200 && ct == wirefmt.ContentType,
		"JSON request negotiates a frame response via Accept",
		"code=%d content-type=%q err=%v", code, ct, err)
	body, ct, code, err = s.postRaw("/v1/solve", wirefmt.ContentType, "application/json", frame)
	var jsr struct {
		X []float64 `json:"x"`
	}
	jerr := json.Unmarshal(body, &jsr)
	s.check(err == nil && code == 200 && ct == "application/json" &&
		jerr == nil && maxAbsDiff(jsr.X, xTrue) < 1e-6,
		"binary request negotiates a JSON response via Accept",
		"code=%d content-type=%q err=%v unmarshal=%v", code, ct, err, jerr)

	// A malformed frame must come back as the usual typed JSON envelope,
	// never as a frame and never as a 500.
	body, ct, code, err = s.postRaw("/v1/solve", wirefmt.ContentType, "", []byte("TCQFgarbage"))
	var benv struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	jerr = json.Unmarshal(body, &benv)
	s.check(err == nil && code == 400 && strings.HasPrefix(ct, "application/json") &&
		jerr == nil && benv.Error.Code == "bad_input",
		"malformed frame returns 400 bad_input as JSON",
		"code=%d content-type=%q error.code=%q err=%v unmarshal=%v", code, ct, benv.Error.Code, err, jerr)

	// Hazard-triggering matrix: one column far past the binary16 maximum,
	// column scaling disabled. Fail policy must refuse with a typed
	// envelope; fallback must recover and say what it did.
	hazMat := smokeMatrix(m, n, 3e5)
	hazCfg := map[string]any{"cutoff": 8, "disable_column_scaling": true}
	var er struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	code, err = s.post("/v1/factorize", map[string]any{"matrix": hazMat, "config": hazCfg}, &er)
	s.check(err == nil && code == 422 && er.Error.Code == "numerical_hazard",
		"overflow under fail policy returns 422 numerical_hazard",
		"code=%d error.code=%q err=%v", code, er.Error.Code, err)
	hazCfg["on_hazard"] = "fallback"
	var hr struct {
		Hazards []struct {
			Kind   string `json:"kind"`
			Action string `json:"action"`
		} `json:"hazards"`
	}
	code, err = s.post("/v1/factorize", map[string]any{"matrix": hazMat, "config": hazCfg}, &hr)
	recovered := false
	for _, h := range hr.Hazards {
		if h.Action != "" {
			recovered = true
		}
	}
	s.check(err == nil && code == 200 && recovered,
		"overflow under fallback recovers and reports the ladder",
		"code=%d hazards=%+v err=%v", code, hr.Hazards, err)

	// Malformed inputs must be typed 4xx refusals, never 200 or 500.
	code, err = s.post("/v1/solve", map[string]any{"key": key, "b": []float64{1, 2, 3}}, &er)
	s.check(err == nil && code == 400 && er.Error.Code == "bad_input",
		"short rhs returns 400 bad_input", "code=%d error.code=%q err=%v", code, er.Error.Code, err)
	code, err = s.post("/v1/solve", map[string]any{"key": "m0-bogus", "b": make([]float64, m)}, &er)
	s.check(err == nil && code == 404 && er.Error.Code == "unknown_key",
		"unknown key returns 404 unknown_key", "code=%d error.code=%q err=%v", code, er.Error.Code, err)
	code, err = s.post("/v1/factorize", map[string]any{"matrix": map[string]any{
		"rows": 2, "cols": 4, "data": []float64{1, 2, 3, 4, 5, 6, 7, 8}}}, &er)
	s.check(err == nil && code == 400 && er.Error.Code == "bad_input",
		"wide matrix returns 400 bad_input", "code=%d error.code=%q err=%v", code, er.Error.Code, err)

	// Chunked upload (DESIGN.md §13): stream a tall-skinny matrix as three
	// binary row-block frames, commit, and verify the key is exactly what a
	// one-shot upload of the same matrix gets — then solve against it.
	tm, tn := 2048, 16
	tall := smokeMatrix(tm, tn, 1)
	tallData := tall["data"].([]float64)
	var br struct {
		Session string `json:"session"`
		TTLMS   int64  `json:"ttl_ms"`
	}
	code, err = s.post("/v1/factorize/stream/begin", map[string]any{"cols": tn}, &br)
	s.check(err == nil && code == 200 && br.Session != "" && br.TTLMS > 0,
		"stream begin mints a session", "code=%d session=%q ttl_ms=%d err=%v", code, br.Session, br.TTLMS, err)
	row := 0
	for ci, h := range []int{1024, 512, 512} {
		blk := make([]float64, 0, h*tn)
		for j := 0; j < tn; j++ {
			blk = append(blk, tallData[j*tm+row:j*tm+row+h]...)
		}
		row += h
		meta, _ := json.Marshal(map[string]any{"session": br.Session})
		chunk, cerr := wirefmt.AppendFrame(nil, wirefmt.JSONSection(meta), wirefmt.MatrixSection(h, tn, blk))
		s.check(cerr == nil, fmt.Sprintf("chunk %d encodes as a frame", ci), "err=%v", cerr)
		abody, _, acode, aerr := s.postRaw("/v1/factorize/stream/append", wirefmt.ContentType, "application/json", chunk)
		var ar struct {
			Rows   int `json:"rows"`
			Blocks int `json:"blocks"`
		}
		uerr := json.Unmarshal(abody, &ar)
		s.check(aerr == nil && acode == 200 && uerr == nil && ar.Rows == row && ar.Blocks == ci+1,
			fmt.Sprintf("binary append %d accepted", ci),
			"code=%d rows=%d blocks=%d err=%v unmarshal=%v", acode, ar.Rows, ar.Blocks, aerr, uerr)
	}
	var cr struct {
		Key    string `json:"key"`
		Rows   int    `json:"rows"`
		Cached bool   `json:"cached"`
	}
	code, err = s.post("/v1/factorize/stream/commit", map[string]any{"session": br.Session}, &cr)
	s.check(err == nil && code == 200 && cr.Key != "" && cr.Rows == tm && !cr.Cached,
		"stream commit factorizes the assembled matrix",
		"code=%d key=%q rows=%d cached=%v err=%v", code, cr.Key, cr.Rows, cr.Cached, err)
	var tfr struct {
		Key    string `json:"key"`
		Cached bool   `json:"cached"`
	}
	code, err = s.post("/v1/factorize", map[string]any{"matrix": tall}, &tfr)
	s.check(err == nil && code == 200 && tfr.Cached && tfr.Key == cr.Key,
		"one-shot upload of the streamed matrix is a cache hit on the same key",
		"code=%d key=%q streamed=%q cached=%v err=%v", code, tfr.Key, cr.Key, tfr.Cached, err)
	xTall := make([]float64, tn)
	for j := range xTall {
		xTall[j] = float64(j%3) + 1
	}
	var tsr struct {
		X []float64 `json:"x"`
	}
	code, err = s.post("/v1/solve", map[string]any{"key": cr.Key, "b": matVec(tall, xTall)}, &tsr)
	s.check(err == nil && code == 200 && maxAbsDiff(tsr.X, xTall) < 1e-5,
		"solve against the streamed factorization is accurate",
		"code=%d max |x-x*| = %g err=%v", code, maxAbsDiff(tsr.X, xTall), err)
	// A committed session is consumed: the id must no longer resolve.
	code, err = s.post("/v1/factorize/stream/commit", map[string]any{"session": br.Session}, &er)
	s.check(err == nil && code == 404 && er.Error.Code == "unknown_stream",
		"committed session is consumed", "code=%d error.code=%q err=%v", code, er.Error.Code, err)

	// Introspection: /statz must reflect the traffic above.
	var statz struct {
		Cache struct {
			Hits int64 `json:"hits"`
		} `json:"cache"`
		Coalescer struct {
			MultiSolveCalls int64 `json:"multi_solve_calls"`
		} `json:"coalescer"`
		Timing map[string]struct {
			Count int64 `json:"count"`
		} `json:"timing"`
	}
	code, err = s.get("/statz", &statz)
	s.check(err == nil && code == 200 && statz.Cache.Hits >= 1 &&
		statz.Coalescer.MultiSolveCalls >= 1 && statz.Timing["solve"].Count >= 1,
		"statz reflects cache hits, coalesced calls and stage timings",
		"code=%d cache.hits=%d multi=%d timing[solve].count=%d err=%v",
		code, statz.Cache.Hits, statz.Coalescer.MultiSolveCalls, statz.Timing["solve"].Count, err)

	// Engine selection end-to-end: the factorize that held the worker above
	// named the error-corrected engine, so it must have run its GEMMs on the
	// tensor-core simulant under the tc-ec label — engine_stats and the scrape
	// below both assert it, proving the hot path stayed on the simulated
	// device rather than falling back to fp32.
	<-ecDone
	code, err = ecCode, ecErr
	s.check(err == nil && code == 200 && ecr.Key != "" && len(ecr.Hazards) == 0 && ecr.EngineStats.GemmCalls > 0,
		"tall tc-ec factorize runs its GEMMs on the requested engine with no hazards",
		"code=%d key=%q hazards=%d engine_stats.gemm_calls=%d err=%v",
		code, ecr.Key, len(ecr.Hazards), ecr.EngineStats.GemmCalls, err)
	code, err = s.post("/v1/factorize",
		map[string]any{"matrix": ecMat, "config": map[string]any{"engine": "fp16"}}, &fpr)
	s.check(err == nil && code == 200 && fpr.Key != "" && ecr.Key != fpr.Key,
		"tc-ec factorize keys apart from the fp16 one at equal config",
		"engine missing from the cache-key fingerprint: tc-ec=%q fp16=%q err=%v", ecr.Key, fpr.Key, err)

	// /metrics must serve Prometheus text reflecting the same traffic:
	// serve, hazard, and engine families present, with non-zero request and
	// cache-hit counters.
	text, code, err := s.getText("/metrics")
	s.check(err == nil && code == 200, "metrics returns 200", "code=%d err=%v", code, err)
	for _, family := range []string{
		"tcqrd_requests_total",
		"tcqrd_responses_total",
		"tcqrd_cache_hits_total",
		"tcqrd_stage_duration_seconds_bucket",
		"tcqrd_coalescer_batch_size_bucket",
		"tcqrd_hazards_total",
		"tcqrd_engine_gemm_calls_total",
		"tcqrd_wire_requests_total",
		"tcqrd_wire_responses_total",
		"tcqrd_stream_sessions",
		"tcqrd_stream_begun_total",
		"tcqrd_stream_committed_total",
		"tcqrd_stream_appends_total",
	} {
		s.check(strings.Contains(text, family),
			fmt.Sprintf("metrics exposes %s", family), "family missing from exposition")
	}
	s.check(metricAbove(text, "tcqrd_requests_total", 0),
		"metrics counted requests", "every tcqrd_requests_total series is zero")
	s.check(metricAbove(text, "tcqrd_cache_hits_total", 0),
		"metrics counted cache hits", "tcqrd_cache_hits_total is zero")
	s.check(metricAbove(text, "tcqrd_hazards_total", 0),
		"metrics counted hazards", "every tcqrd_hazards_total series is zero")
	s.check(metricAbove(text, "tcqrd_engine_gemm_calls_total", 0),
		"metrics counted engine GEMM calls", "every tcqrd_engine_gemm_calls_total series is zero")
	s.check(metricLabelAbove(text, "tcqrd_engine_gemm_calls_total", `engine="tc-ec"`, 0),
		"metrics counted tc-ec engine GEMM calls",
		`no non-zero engine="tc-ec" sample — the tc-ec factorize left the simulant`)
	s.check(metricLabelAbove(text, "tcqrd_wire_requests_total", `encoding="binary"`, 0),
		"metrics counted binary-encoded requests", "no non-zero encoding=binary sample")
	s.check(metricLabelAbove(text, "tcqrd_wire_responses_total", `encoding="binary"`, 0),
		"metrics counted binary-encoded responses", "no non-zero encoding=binary sample")
	s.check(metricAbove(text, "tcqrd_stream_begun_total", 0) &&
		metricAbove(text, "tcqrd_stream_committed_total", 0) &&
		metricAbove(text, "tcqrd_stream_appends_total", 2),
		"metrics counted the chunked upload lifecycle",
		"stream begun/committed/appends counters do not reflect the upload")

	if s.failed {
		fmt.Fprintln(os.Stderr, "SMOKE FAILED")
		return 1
	}
	fmt.Println("SMOKE OK")
	return 0
}

// metricAbove reports whether any sample line of the named family (exact
// name or name{labels}) has a value strictly greater than min.
func metricAbove(exposition, name string, min float64) bool {
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if strings.HasPrefix(rest, "{") {
			if i := strings.Index(rest, "} "); i >= 0 {
				rest = rest[i+1:]
			} else {
				continue
			}
		} else if !strings.HasPrefix(rest, " ") {
			continue // a longer family name sharing the prefix
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err == nil && v > min {
			return true
		}
	}
	return false
}

// metricLabelAbove reports whether any sample line of the named family whose
// label set contains labelSub has a value strictly greater than min.
func metricLabelAbove(exposition, name, labelSub string, min float64) bool {
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name+"{") || !strings.Contains(line, labelSub) {
			continue
		}
		i := strings.Index(line, "} ")
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64)
		if err == nil && v > min {
			return true
		}
	}
	return false
}

// smoker carries the HTTP plumbing and the running pass/fail state.
type smoker struct {
	base   string
	client *http.Client
	failed bool
}

func (s *smoker) check(ok bool, what, detailFormat string, args ...any) {
	if ok {
		fmt.Printf("ok   %s\n", what)
		return
	}
	s.failed = true
	fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", what, fmt.Sprintf(detailFormat, args...))
}

func (s *smoker) get(path string, out any) (int, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, err
	}
	return decodeResp(resp, out)
}

// getText fetches a non-JSON endpoint (the Prometheus exposition) raw.
func (s *smoker) getText(path string) (string, int, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), resp.StatusCode, err
}

// postRaw sends body verbatim under the given Content-Type (and Accept when
// non-empty) and returns the raw response body, its Content-Type, and the
// status code — the plumbing for binary-frame requests.
func (s *smoker) postRaw(path, contentType, accept string, body []byte) ([]byte, string, int, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", 0, err
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, "", 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.Header.Get("Content-Type"), resp.StatusCode, err
}

func (s *smoker) post(path string, body any, out any) (int, error) {
	code, _, err := s.postHdr(path, body, out)
	return code, err
}

func (s *smoker) postHdr(path string, body any, out any) (int, http.Header, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	hdr := resp.Header
	code, err := decodeResp(resp, out)
	return code, hdr, err
}

func decodeResp(resp *http.Response, out any) (int, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("undecodable body %q: %w", truncate(data), err)
		}
	}
	return resp.StatusCode, nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// smokeMatrix builds a deterministic column-major m×n wire matrix with
// entries in [-0.5, 0.5); the last column is multiplied by lastColScale
// (3e5 puts it far past the binary16 maximum of 65504, the §3.5 hazard).
func smokeMatrix(m, n int, lastColScale float64) map[string]any {
	seed := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11)/float64(uint64(1)<<53) - 0.5
	}
	data := make([]float64, m*n)
	for i := range data {
		data[i] = next()
	}
	for i := (n - 1) * m; i < n*m; i++ {
		data[i] *= lastColScale
	}
	return map[string]any{"rows": m, "cols": n, "data": data}
}

func maxAbsDiff(got, want []float64) float64 {
	if len(got) != len(want) {
		return float64(len(got) - len(want)) // force a visible failure
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

// matVec computes A·x for a wire matrix (column-major data).
func matVec(mat map[string]any, x []float64) []float64 {
	m := mat["rows"].(int)
	n := mat["cols"].(int)
	data := mat["data"].([]float64)
	b := make([]float64, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			b[i] += data[j*m+i] * x[j]
		}
	}
	return b
}
