package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tcqr/internal/wirefmt"
)

// faultSmokeSpec fails every second cold factorization, so faultChecks walks
// the daemon through the failure contract deterministically: the first
// factorize (hit 1) passes and warms the cache; the second (hit 2) is injected
// and surfaces as a 500; the third (hit 3) passes again, served as if the
// failure never happened.
const faultSmokeSpec = "seed=7;serve.cache.factorize=error@every=2"

// smokeScenarios is the smoke: what runSmoke starts and drives, top to
// bottom. The api row runs one worker, which apiChecks holds with a slow
// factorize before it sends a burst of solves, so they answer from the queue;
// every other row runs the default worker count. The restart row
// is a new process on the api row's -cache-dir, under the same update checks:
// they must find the series at the epoch they left it.
var smokeScenarios = []scenario{
	{"api", [][]string{{"-workers", "1", "-cache-dir", "$dir/factors"}},
		[]func(*smoker, []*daemon){apiChecks, updateChecks}},
	{"restart", [][]string{{"-cache-dir", "$dir/factors"}},
		[]func(*smoker, []*daemon){updateChecks}},
	{"fault", [][]string{{"-fault-spec", faultSmokeSpec}},
		[]func(*smoker, []*daemon){faultChecks}},
	{"cluster", [][]string{clusterFlags, clusterFlags, clusterFlags},
		[]func(*smoker, []*daemon){clusterChecks}},
}

// clusterProbe is the cluster row's -probe-interval; clusterChecks waits in
// multiples of it. The survivors end the row holding hints for the node that
// was killed, and a draining daemon retries those for its whole drain budget:
// 2s of that proves the drain, the default 10s only adds 8s to the smoke.
const clusterProbe = 50 * time.Millisecond

var clusterFlags = []string{"-node-id", "$id", "-peers", "$peers",
	"-probe-interval", clusterProbe.String(), "-drain-timeout", "2s"}

// apiChecks drives the API contract: factorize (cold, then cached),
// concurrent solves queued behind a busy worker, both wire encodings, a
// hazard-triggering matrix under both policies, malformed inputs, a tall
// matrix sent as one frame and then as JSON, and the introspection
// endpoints.
func apiChecks(s *smoker, ds []*daemon) {
	d := ds[0]
	r := d.get("/healthz")
	s.check(r.is(200) && r.Status == "ok", "healthz returns 200 ok", r)

	// Cold factorize, then the identical request again: the second must hit
	// the cache.
	const m, n = 96, 24
	mat := smokeMatrix(m, n, 1)
	r = d.post("/v1/factorize", obj{"matrix": mat})
	s.check(r.is(200) && r.Key != "" && !r.Cached && len(r.Hazards) == 0,
		"cold factorize succeeds with a key and no hazards", r)
	key := r.Key
	r = d.post("/v1/factorize", obj{"matrix": mat})
	s.check(r.is(200) && r.Cached, "repeat factorize is a cache hit", r)

	// A "method":"none" solve on the idle daemon: it must come back
	// unrefined. The queued pair below has to match it bit for bit.
	noneBody := obj{"key": key, "b": mat.mulVec(ramp(n, 5, 0)), "options": obj{"method": "none"}}
	alone := d.post("/v1/solve", noneBody)
	s.check(alone.is(200) && alone.Iterations == 0, "solo method=none solve is unrefined", alone)

	// Queued solves. The client makes the one worker busy with the slowest
	// request it has — the cold 2048x256 tc-ec factorize, whose answer is
	// checked further down — and once /statz shows that factorization
	// running the solves sent next queue behind it. The
	// matrix is tall-skinny, and 256 columns is wide enough to split, so the
	// projection GEMMs reach the engine: the engine a request names factors
	// it at every shape.
	ecMat := smokeMatrix(2048, 256, 1)
	ecDone := make(chan *reply, 1)
	go func() {
		ecDone <- d.post("/v1/factorize", obj{"matrix": ecMat, "config": obj{"engine": "tc-ec"}})
	}()
	var ec *reply
	zr, z := d.statz()
	for zr.is(200) && z.Pool.InFlight < 1 && ec == nil {
		select {
		case ec = <-ecDone: // over before it was ever seen running; the check below says so
		case <-time.After(time.Millisecond):
			zr, z = d.statz()
		}
	}
	s.check(z.Pool.Workers == 1 && z.Pool.InFlight >= 1, "the tall factorize holds the daemon's one worker",
		"pool.workers", z.Pool.Workers, "pool.in_flight", z.Pool.InFlight, zr)

	// Eight solves by key against known right-hand sides plus the
	// method=none solve twice, all queued behind the held worker: every
	// answer must come back accurate, and the pair must match the solo
	// answer — the answer may not depend on what else was in the queue.
	outs := make([]*reply, 8)
	pair := make([]*reply, 2)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = d.post("/v1/solve", obj{"key": key, "b": mat.mulVec(ramp(n, 5, float64(i)))})
		}()
	}
	for i := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pair[i] = d.post("/v1/solve", noneBody)
		}()
	}
	wg.Wait()
	for i, o := range outs {
		s.check(o.is(200), fmt.Sprintf("concurrent solve %d succeeds", i), o)
		s.check(maxAbsDiff(o.X, ramp(n, 5, float64(i))) < 1e-6, fmt.Sprintf("solve %d is accurate", i), o)
		s.check(o.hdr.Get("Server-Timing") != "", fmt.Sprintf("solve %d carries Server-Timing", i), o)
	}
	for i, o := range pair {
		s.check(o.is(200) && o.Iterations == 0 && maxAbsDiff(o.X, alone.X) == 0,
			fmt.Sprintf("queued method=none solve %d matches the solo answer", i), o)
	}

	// Binary wire protocol (DESIGN.md §12): the same warm solve served as a
	// zero-copy frame, content negotiation across mixed encodings, and the
	// JSON error envelope on a malformed frame.
	xTrue := ramp(n, 7, -3)
	rhs := mat.mulVec(xTrue)
	r = d.postFrame("/v1/solve", "", obj{"key": key}, wirefmt.VectorSection(rhs))
	s.check(r.err == nil, "solve request encodes as a frame", r)
	s.check(r.is(200) && r.hdr.Get("Content-Type") == wirefmt.ContentType, "binary solve answers 200 with a frame", r)
	s.check(maxAbsDiff(r.vector(), xTrue) < 1e-6, "binary solve is accurate", r)

	// Mixed encodings: a JSON request may ask for a frame response via
	// Accept, and a binary request may ask for JSON back.
	r = d.postAccept("/v1/solve", wirefmt.ContentType, obj{"key": key, "b": rhs})
	s.check(r.is(200) && r.hdr.Get("Content-Type") == wirefmt.ContentType,
		"JSON request negotiates a frame response via Accept", r)
	r = d.postFrame("/v1/solve", "application/json", obj{"key": key}, wirefmt.VectorSection(rhs))
	s.check(r.is(200) && r.hdr.Get("Content-Type") == "application/json" && maxAbsDiff(r.X, xTrue) < 1e-6,
		"binary request negotiates a JSON response via Accept", r)

	// A malformed frame must come back as the usual typed JSON envelope,
	// never as a frame and never as a 500.
	r = d.do(http.MethodPost, "/v1/solve", wirefmt.ContentType, "", []byte("TCQFgarbage"), nil)
	s.check(r.fails(400, "bad_input"), "malformed frame returns 400 bad_input as JSON", r)

	// Hazard-triggering matrix: the last column scaled far past the binary16
	// maximum of 65504 (the paper's §3.5 hazard), column scaling disabled.
	// Fail policy must refuse with a typed envelope; fallback must recover
	// and say what it did.
	hazMat := smokeMatrix(m, n, 1)
	for i := (n - 1) * m; i < n*m; i++ {
		hazMat.Data[i] *= 3e5
	}
	hazCfg := obj{"cutoff": 8, "disable_column_scaling": true}
	r = d.post("/v1/factorize", obj{"matrix": hazMat, "config": hazCfg})
	s.check(r.fails(422, "numerical_hazard"), "overflow under fail policy returns 422 numerical_hazard", r)
	hazCfg["on_hazard"] = "fallback"
	r = d.post("/v1/factorize", obj{"matrix": hazMat, "config": hazCfg})
	recovered := false
	for _, h := range r.Hazards {
		recovered = recovered || h.Action != ""
	}
	s.check(r.is(200) && recovered, "overflow under fallback recovers and reports the ladder", r)

	// Malformed inputs must be typed 4xx refusals, never 200 or 500.
	r = d.post("/v1/solve", obj{"key": key, "b": []float64{1, 2, 3}})
	s.check(r.fails(400, "bad_input"), "short rhs returns 400 bad_input", r)
	r = d.post("/v1/solve", obj{"key": "m0-bogus", "b": make([]float64, m)})
	s.check(r.fails(404, "unknown_key"), "unknown key returns 404 unknown_key", r)
	r = d.post("/v1/factorize", obj{"matrix": smokeMatrix(2, 4, 1)})
	s.check(r.fails(400, "bad_input"), "wide matrix returns 400 bad_input", r)

	// A tall matrix in one request (DESIGN.md §13): a binary /v1/factorize
	// carries it as one matrix section, a JSON upload of the same matrix is
	// a cache hit on the same key, and a solve by that key is accurate.
	const tm, tn = 2048, 16
	tall := smokeMatrix(tm, tn, 1)
	r = d.postFrame("/v1/factorize", "application/json", obj{}, wirefmt.MatrixSection(tm, tn, tall.Data))
	s.check(r.err == nil && r.is(200) && r.Key != "" && r.Rows == tm && !r.Cached,
		"binary factorize of a tall matrix", r)
	tallKey := r.Key
	r = d.post("/v1/factorize", obj{"matrix": tall})
	s.check(r.is(200) && r.Cached && r.Key == tallKey,
		"JSON upload of the same matrix is a cache hit on the same key", r, "sent as a frame to", tallKey)
	r = d.post("/v1/solve", obj{"key": tallKey, "b": tall.mulVec(ramp(tn, 3, 1))})
	s.check(r.is(200) && maxAbsDiff(r.X, ramp(tn, 3, 1)) < 1e-5,
		"solve against the tall factorization is accurate", r)

	// Introspection: /statz must reflect the traffic above.
	zr, z = d.statz()
	s.check(zr.is(200) && z.Cache.Hits >= 1, "statz reflects cache hits", zr)
	for _, stage := range []string{"decode", "key", "queue", "factorize", "solve", "encode"} {
		s.check(z.Timing[stage].Count >= 1, "statz timed the "+stage+" stage", zr)
	}

	// Engine selection end-to-end: the factorize that held the worker above
	// named the error-corrected engine, so it must have run its GEMMs on the
	// tensor-core simulant under the tc-ec label — engine_stats and the scrape
	// below both assert it, proving the hot path stayed on the simulated
	// device rather than falling back to fp32.
	if ec == nil {
		ec = <-ecDone
	}
	s.check(ec.is(200) && ec.Key != "" && len(ec.Hazards) == 0 && ec.EngineStats.GemmCalls > 0,
		"tall tc-ec factorize runs its GEMMs on the requested engine with no hazards", ec)
	r = d.post("/v1/factorize", obj{"matrix": ecMat, "config": obj{"engine": "fp16"}})
	s.check(r.is(200) && r.Key != "" && r.Key != ec.Key, "tc-ec factorize keys apart from the fp16 one at equal config",
		"engine missing from the cache-key fingerprint: tc-ec", ec.Key, "fp16", r.Key, r)

	// /metrics must serve Prometheus text reflecting the same traffic.
	text := s.scrape(d,
		wantMetric{"metrics counted requests", "tcqrd_requests_total", "", 0},
		wantMetric{"metrics counted cache hits", "tcqrd_cache_hits_total", "", 0},
		wantMetric{"metrics counted hazards", "tcqrd_hazards_total", "", 0},
		wantMetric{"metrics counted engine GEMM calls", "tcqrd_engine_gemm_calls_total", "", 0},
		// A zero here means the tc-ec factorize left the simulant.
		wantMetric{"metrics counted tc-ec engine GEMM calls", "tcqrd_engine_gemm_calls_total", `engine="tc-ec"`, 0},
		wantMetric{`tcqrd_wire_requests_total{encoding="json"} > 0`, "tcqrd_wire_requests_total", `encoding="json"`, 0},
		wantMetric{"metrics counted binary-encoded requests", "tcqrd_wire_requests_total", `encoding="binary"`, 0},
		wantMetric{"metrics counted binary-encoded responses", "tcqrd_wire_responses_total", `encoding="binary"`, 0},
		wantMetric{"metrics timed the decode stage", "tcqrd_stage_duration_seconds_count", `stage="decode"`, 0},
		wantMetric{"metrics timed the key stage", "tcqrd_stage_duration_seconds_count", `stage="key"`, 0})
	for _, family := range []string{
		"tcqrd_requests_total", "tcqrd_responses_total", "tcqrd_cache_hits_total", "tcqrd_cache_key_collisions_total",
		"tcqrd_stage_duration_seconds_bucket",
		"tcqrd_hazards_total", "tcqrd_engine_gemm_calls_total",
		"tcqrd_wire_requests_total", "tcqrd_wire_responses_total",
	} {
		s.check(strings.Contains(text, family), "metrics exposes "+family, "family missing from exposition")
	}
}

// updateChecks drives the incremental-update contract: factorize, append
// rows through /v1/update (JSON and binary frames), solve against the bare
// base key (newest epoch) and an explicit epoch-pinned key, downdate back to
// the original shape, and verify the error paths and the tcqrd_update_*
// metric families. Every epoch check is relative to the epoch the bare key
// resolves when the run starts: 0 on a fresh daemon, and the epoch the run
// before left the series at on one restarted on the same -cache-dir. The run
// leaves the series at the original matrix, three epochs on.
func updateChecks(s *smoker, ds []*daemon) {
	d := ds[0]
	r := d.get("/healthz")
	s.check(r.is(200) && r.Status == "ok", "healthz returns 200 ok", r)

	// A shape distinct from apiChecks' so the two never share cache keys.
	const m, n, blockRows = 120, 24, 8
	mat, block := smokeMatrix(m, n, 1), smokeMatrix(blockRows, n, 1)
	r = d.post("/v1/factorize", obj{"matrix": mat})
	s.check(r.is(200) && r.Key != "", "factorize succeeds with a key", r)
	baseKey := r.Key
	epochKey := func(e uint64) string {
		if e == 0 {
			return baseKey
		}
		return baseKey + "@" + strconv.FormatUint(e, 10)
	}

	// Where is the series? The bare key names its newest epoch, and every
	// run leaves it factoring the original matrix.
	xTrue := ramp(n, 5, -2)
	b0 := mat.mulVec(xTrue)
	r = d.post("/v1/solve", obj{"key": baseKey, "b": b0})
	var e0 uint64
	if _, epoch, versioned := strings.Cut(r.Key, "@"); versioned {
		e0, _ = strconv.ParseUint(epoch, 10, 64) // a malformed key fails the check below
	}
	s.check(r.is(200) && r.Key == epochKey(e0) && maxAbsDiff(r.X, xTrue) < 1e-6,
		"bare-key solve finds the series at the original matrix", r)
	fmt.Printf("series found at epoch %d\n", e0)
	if s.epochLeft > 0 { // a new process on the -cache-dir the run before spilled to
		s.check(e0 == s.epochLeft, fmt.Sprintf("restart resumed the series at epoch %d", e0),
			"the run before left it at epoch", s.epochLeft)
		zr, z := d.statz()
		s.check(zr.is(200) && z.Cache.Rewarmed > 0, "a continued series was rewarmed from the spill tier", zr)
	}

	// Append a row block (JSON): the next epoch publishes under key@N.
	r = d.post("/v1/update", obj{"key": baseKey, "append": block})
	s.check(r.is(200) && r.Epoch == e0+1 && r.Key == epochKey(e0+1) && r.BaseKey == baseKey &&
		r.Rows == m+blockRows && r.Cols == n, "append update publishes the next epoch", r)

	// Solving by the bare base key resolves the newest epoch, and the
	// response names the exact epoch it ran against.
	b1 := mat.stack(block).mulVec(xTrue)
	r = d.post("/v1/solve", obj{"key": baseKey, "b": b1})
	s.check(r.is(200) && r.Key == epochKey(e0+1), "bare-key solve resolves the new epoch", r)
	s.check(maxAbsDiff(r.X, xTrue) < 1e-6, "post-update solve is accurate", r)

	// The versioned key pins exactly that epoch.
	r = d.post("/v1/solve", obj{"key": epochKey(e0 + 1), "b": b1})
	s.check(r.is(200) && r.Key == epochKey(e0+1) && maxAbsDiff(r.X, xTrue) < 1e-6,
		"epoch-pinned solve answers from the new epoch", r)

	// A request that carries its own matrix is answered from that matrix,
	// under its own key: the content hash is also the series' bare key, and
	// the series has moved on to the appended matrix.
	r = d.post("/v1/solve", obj{"matrix": mat, "b": b0})
	s.check(r.is(200) && r.Key == baseKey && maxAbsDiff(r.X, xTrue) < 1e-6,
		"inline solve of the original matrix ignores the newer epoch", r)

	// Binary frame append: [JSON meta, block] publishes the epoch after.
	r = d.postFrame("/v1/update", "application/json", obj{"key": baseKey},
		wirefmt.MatrixSection(blockRows, n, block.Data))
	s.check(r.err == nil, "update request encodes as a frame", r)
	s.check(r.is(200) && r.Epoch == e0+2 && r.Rows == m+2*blockRows,
		"binary-frame append publishes the epoch after", r)

	// Downdate both appended blocks: the third epoch of this run factors
	// the original matrix again.
	r = d.post("/v1/update", obj{"key": baseKey, "remove_rows": 2 * blockRows})
	s.check(r.is(200) && r.Epoch == e0+3 && r.Rows == m,
		"downdate publishes the third epoch at the original shape", r)
	r = d.post("/v1/solve", obj{"key": baseKey, "b": b0})
	s.check(r.is(200) && r.Key == epochKey(e0+3) && maxAbsDiff(r.X, xTrue) < 1e-6,
		"post-downdate solve matches the original matrix", r)
	s.epochLeft = e0 + 3
	fmt.Printf("series left at epoch %d\n", s.epochLeft)

	// Error contract: unknown key is 404, append+remove together is 400.
	r = d.post("/v1/update", obj{"key": "m0000000000000000-nope", "remove_rows": 1})
	s.check(r.fails(404, "unknown_key"), "update of an unknown key is 404 unknown_key", r)
	r = d.post("/v1/update", obj{"key": baseKey, "append": block, "remove_rows": 1})
	s.check(r.fails(400, "bad_input"), "append+remove together is 400 bad_input", r)

	// The update metric families must reflect the three published epochs.
	s.scrape(d,
		wantMetric{"tcqrd_update_epochs_total counted the epochs", "tcqrd_update_epochs_total", "", 2},
		wantMetric{"tcqrd_update_applied_total{op=append} counted both appends", "tcqrd_update_applied_total", `op="append"`, 1},
		wantMetric{"tcqrd_update_applied_total{op=downdate} counted the downdate", "tcqrd_update_applied_total", `op="downdate"`, 0},
		wantMetric{"tcqrd_update_retired_total retired the superseded epochs", "tcqrd_update_retired_total", "", 2})
}

// faultChecks drives a daemon armed with faultSmokeSpec through the failure
// contract: an injected 500 is one answer to one request, and leaves nothing
// behind — the next cold factorize and the cache hits are served, healthz
// stays ok, and no degraded-mode metric family exists.
func faultChecks(s *smoker, ds []*daemon) {
	d := ds[0]
	// Hit 1 of serve.cache.factorize passes: the cache gets one warm entry.
	const m, n = 96, 24
	matA := smokeMatrix(m, n, 1)
	r := d.post("/v1/factorize", obj{"matrix": matA})
	s.check(r.is(200) && r.Key != "", "warm-up factorize succeeds (fault hit 1 passes)", r)
	keyA := r.Key

	// Hit 2 fires: the injected failure surfaces as a typed 500.
	r = d.post("/v1/factorize", obj{"matrix": smokeMatrix(m, n, 2)})
	s.check(r.fails(500, "internal"), "injected factorize fault surfaces as 500 internal", r)

	// Hit 3 passes: the 500 said nothing about the next request.
	r = d.post("/v1/factorize", obj{"matrix": smokeMatrix(m, n, 3)})
	s.check(r.is(200) && !r.Cached, "the next cold factorize after a 500 succeeds", r)

	// The warm entry serves as before.
	r = d.post("/v1/solve", obj{"key": keyA, "b": matA.mulVec(ramp(n, 7, 1))})
	s.check(r.is(200) && maxAbsDiff(r.X, ramp(n, 7, 1)) < 1e-6,
		"cache-hit solve after a 500 is accurate", r)

	r = d.get("/healthz")
	s.check(r.is(200) && r.Status == "ok", "healthz reports 200 ok after a 500", r)

	text := s.scrape(d,
		wantMetric{"metrics counted injected faults", "tcqrd_fault_injected_total", "", 0})
	s.check(!strings.Contains(text, "tcqrd_degraded"), "metrics expose no tcqrd_degraded* family",
		"degraded-mode family present in exposition")
}

// clusterChecks drives keyed traffic through three real processes wired by
// -peers (2-way replication, fast probes) with every node as coordinator,
// then loses one to SIGKILL and keeps going. It asserts the cluster contract
// end to end:
//
//   - every factorize and solve answers 200, before and after the kill —
//     zero lost responses;
//   - every key factored before the kill is still resolvable by solve-by-key
//     through every survivor (local hit, replica, or forward);
//   - each survivor's forwarding accounting balances on its /metrics:
//     route_total{decision="forward"} == served_remote + served_local_fallback.
//
// TestClusterChaosSoak in internal/serve is the in-process soak of the same
// story with the cluster.* failpoints armed.
func clusterChecks(s *smoker, ds []*daemon) {
	const mrows, ncols = 48, 12
	xTrue := ramp(ncols, 5, -2)
	type keyed struct {
		key string
		mat wireMatrix
	}
	var keys []keyed
	factorize := func(d *daemon, seed uint64, what string) {
		mat := smokeMatrix(mrows, ncols, seed)
		r := d.post("/v1/factorize", obj{"matrix": mat})
		s.check(r.is(200) && r.Key != "", what, r)
		keys = append(keys, keyed{r.Key, mat})
	}
	solve := func(d *daemon, k keyed, what string) {
		r := d.post("/v1/solve", obj{"key": k.key, "b": k.mat.mulVec(xTrue)})
		s.check(r.is(200) && maxAbsDiff(r.X, xTrue) < 1e-6, what, r)
	}
	settle := func() { time.Sleep(8 * clusterProbe) } // lets the replica fan-out land

	// Phase A: factor 12 distinct matrices, spreading coordinators across the
	// ring so forwards, local-owner serves, and local hits all occur.
	for i := 0; i < 12; i++ {
		d := ds[i%len(ds)]
		factorize(d, uint64(i+1), fmt.Sprintf("phase A factorize %d via %s succeeds", i, d.id))
	}
	settle()
	for i, k := range keys {
		solve(ds[(i+1)%len(ds)], k, fmt.Sprintf("phase A solve-by-key %d via a non-computing node succeeds", i))
	}

	// Lose the last node abruptly: this models node loss, not a deploy.
	victim, survivors := ds[len(ds)-1], ds[:len(ds)-1]
	victim.kill()
	fmt.Printf("ok   killed node %s mid-run\n", victim.id)
	time.Sleep(4 * clusterProbe) // let the survivors' probes mark it down

	// Phase B: the survivors absorb everything. New keys must still factor
	// (a forward to the dead owner falls back to local compute), and every
	// key must resolve through every survivor.
	for i := 0; i < 6; i++ {
		factorize(survivors[i%len(survivors)], uint64(100+i), fmt.Sprintf("phase B factorize %d with a node down succeeds", i))
	}
	settle()
	for _, d := range survivors {
		for i, k := range keys {
			solve(d, k, fmt.Sprintf("key %d resolvable via survivor %s", i, d.id))
		}
	}

	// The accounting invariant: every routed request terminated exactly once.
	for _, d := range survivors {
		text := s.scrape(d)
		count := func(family, label string) (sum float64) {
			for _, v := range metricValues(text, "tcqrd_cluster_"+family, label) {
				sum += v
			}
			return sum
		}
		routed, remote, fallback := count("route_total", `decision="forward"`), count("served_remote_total", ""), count("served_local_fallback_total", "")
		s.check(routed == remote+fallback, d.id+" forwarding accounting balances",
			"routed", routed, "served_remote", remote, "served_local_fallback", fallback)
		s.check(count("handoff_dropped_total", "") == 0, d.id+" dropped no handoff hints")
		fmt.Printf("ok   %s stats: routed=%v remote=%v fallback=%v fwd_errs=%v handoff(q=%v,d=%v) replicate(ok=%v,err=%v)\n",
			d.id, routed, remote, fallback, count("forward_errors_total", ""),
			count("handoff_queued_total", ""), count("handoff_delivered_total", ""),
			count("replicate_total", `result="ok"`), count("replicate_total", `result="error"`))
	}
}
