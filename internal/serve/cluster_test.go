package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"tcqr/internal/cluster"
	"tcqr/internal/metrics"
	"tcqr/internal/wirefmt"
)

// --- multi-node harness ----------------------------------------------------

// clusterHarness is an in-process tcqrd cluster: every node is a real Server
// behind a real loopback listener, so forwards, probes, replica deliveries
// and handoff all travel over actual HTTP.
type clusterHarness struct {
	t       *testing.T
	members []cluster.Member
	nodes   []*cluster.Node
	srvs    []*Server
	https   []*http.Server
	bases   []string
	client  *http.Client
	dead    []bool
}

const harnessProbe = 50 * time.Millisecond

func startCluster(t *testing.T, nNodes, replicas int) *clusterHarness {
	t.Helper()
	h := &clusterHarness{t: t, client: &http.Client{Timeout: 30 * time.Second}}
	lns := make([]net.Listener, nNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		h.members = append(h.members, cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: ln.Addr().String()})
	}
	for i := 0; i < nNodes; i++ {
		// One registry per node, shared by its cluster and serve halves the
		// way tcqrd wires them: /metrics shows the tcqrd_cluster_* families.
		reg := metrics.NewRegistry()
		node, err := cluster.New(cluster.Config{
			SelfID:        h.members[i].ID,
			Members:       h.members,
			Replicas:      replicas,
			ProbeInterval: harnessProbe,
			Registry:      reg,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		srv := New(Options{Workers: 2, Cluster: node, Registry: reg})
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		h.nodes = append(h.nodes, node)
		h.srvs = append(h.srvs, srv)
		h.https = append(h.https, hs)
		h.bases = append(h.bases, "http://"+h.members[i].Addr)
	}
	h.dead = make([]bool, nNodes)
	t.Cleanup(func() {
		for i := range h.https {
			if !h.dead[i] {
				h.kill(i)
			}
		}
	})
	return h
}

// kill tears node i down abruptly — listener, probe loops, server — the way
// a crashed process disappears (no drain).
func (h *clusterHarness) kill(i int) {
	h.t.Helper()
	h.dead[i] = true
	h.https[i].Close()
	h.nodes[i].Close()
	h.srvs[i].Close()
}

// srvByID maps a member id back to its Server (cache inspection).
func (h *clusterHarness) srvByID(id string) *Server {
	for i, m := range h.members {
		if m.ID == id {
			return h.srvs[i]
		}
	}
	h.t.Fatalf("unknown member %q", id)
	return nil
}

func (h *clusterHarness) post(node int, path string, body any, hdr map[string]string, out any) (int, http.Header) {
	h.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		h.t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, h.bases[node]+path, bytes.NewReader(buf))
	if err != nil {
		h.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		h.t.Fatalf("POST %s via node %d: %v", path, node, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			h.t.Fatalf("undecodable %s response %q: %v", path, data, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// factorize posts a matrix through the given node, returning the content key
// and which node served it ("" = the coordinator itself).
func (h *clusterHarness) factorize(node int, mat map[string]any) (key, servedBy string) {
	h.t.Helper()
	var fr factorizeReply
	code, hdr := h.post(node, "/v1/factorize", map[string]any{"matrix": mat}, nil, &fr)
	if code != 200 || fr.Key == "" {
		h.t.Fatalf("factorize via node %d: status %d key %q", node, code, fr.Key)
	}
	return fr.Key, hdr.Get(cluster.ServedByHeader)
}

// solveKey solves by key through the given node against a known true x,
// returning status and the relay header; accuracy is asserted on 200.
func (h *clusterHarness) solveKey(node int, key string, mat map[string]any, seed int) (int, string) {
	h.t.Helper()
	n := mat["cols"].(int)
	xTrue := make([]float64, n)
	for j := range xTrue {
		xTrue[j] = float64((seed+j)%5) - 2
	}
	b := matVecData(mat["rows"].(int), n, mat["data"].([]float64), xTrue)
	var sr solveReply
	code, hdr := h.post(node, "/v1/solve", map[string]any{"key": key, "b": b}, nil, &sr)
	if code == 200 {
		if d := maxDiff(sr.X, xTrue); d > 1e-6 {
			h.t.Fatalf("solve key %s via node %d: max |x-x*| = %g", key, node, d)
		}
	}
	return code, hdr.Get(cluster.ServedByHeader)
}

// awaitReplicated blocks until every owner of key holds the entry (replica
// fan-out plus handoff retries have converged).
func (h *clusterHarness) awaitReplicated(key string, timeout time.Duration) {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for _, owner := range h.nodes[0].Owners(key) {
		srv := h.srvByID(owner.ID)
		for !srv.cache.Peek(key, true) {
			if time.Now().After(deadline) {
				h.t.Fatalf("owner %s never received key %s", owner.ID, key)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// clusterMat builds a deterministic well-conditioned wire matrix; distinct
// seeds give distinct cache keys.
func clusterMat(seed uint64, m, n int) map[string]any {
	data := testMatrix(seed, m, n, 1)
	for j := 0; j < n && j < m; j++ {
		data[j*m+j] += 2 // diagonal boost: comfortably full-rank
	}
	return wireMat(m, n, data)
}

// settle waits for async cluster machinery (replica fan-out, probes).
func settle() { time.Sleep(6 * harnessProbe) }

// assertInvariant checks node i's forward accounting: every routed request
// ended in exactly one of served_remote and served_local_fallback.
func (h *clusterHarness) assertInvariant(i int) {
	h.t.Helper()
	st := h.nodes[i].Stats()
	if st.Routed != st.ServedRemote+st.ServedLocalFallback {
		h.t.Errorf("%s accounting: routed=%d != served_remote=%d + served_local_fallback=%d",
			h.members[i].ID, st.Routed, st.ServedRemote, st.ServedLocalFallback)
	}
}

// --- routing decisions -----------------------------------------------------

func TestClusterForwardsToOwner(t *testing.T) {
	h := startCluster(t, 2, 1) // replicas=1: every key has exactly one owner
	sawLocal, sawRemote := false, false
	for seed := uint64(1); seed <= 16; seed++ {
		mat := clusterMat(seed, 24, 6)
		key, servedBy := h.factorize(0, mat)
		owner := h.nodes[0].Owners(key)[0]
		if owner.ID == "n0" {
			if servedBy != "" {
				t.Errorf("key %s owned locally but served by %q", key, servedBy)
			}
			sawLocal = true
		} else {
			if servedBy != owner.ID {
				t.Errorf("key %s owned by %s but served by %q", key, owner.ID, servedBy)
			}
			sawRemote = true
			// The owner, not the coordinator, must hold the entry.
			if !h.srvByID(owner.ID).cache.Peek(key, true) {
				t.Errorf("owner %s does not hold forwarded key %s", owner.ID, key)
			}
			if h.srvs[0].cache.Peek(key, true) {
				t.Errorf("coordinator cached forwarded key %s", key)
			}
		}
	}
	if !sawLocal || !sawRemote {
		t.Fatalf("routing did not exercise both decisions (local=%v remote=%v): suspicious ring", sawLocal, sawRemote)
	}
	h.assertInvariant(0)
	st := h.nodes[0].Stats()
	if st.ServedRemote == 0 || st.ServedLocalFallback != 0 {
		t.Errorf("stats = %+v: want remote serves and no fallbacks on a healthy cluster", st)
	}
}

// routeCounters scrapes node's /metrics for every route-decision and
// served-outcome series, as rendered.
func (h *clusterHarness) routeCounters(node int) string {
	h.t.Helper()
	resp, err := h.client.Get(h.bases[node] + "/metrics")
	if err != nil {
		h.t.Fatalf("GET /metrics via node %d: %v", node, err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "tcqrd_cluster_route_total") || strings.HasPrefix(line, "tcqrd_cluster_served_") {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		h.t.Fatalf("node %d renders no cluster route counters", node)
	}
	return strings.Join(out, "\n")
}

// TestClusterUpdateValidatesBeforeRouting: an update is validated where it
// arrives, before the routing decision — a malformed append block posted to a
// node that does not hold the series is that node's 400, never a forwarded
// frame. The first block below is the one that used to get through: its row
// count wraps to 1 in the frame's u32 dims, so the owner saw a well-formed
// 1x1 block and appended it to the 1-column series.
func TestClusterUpdateValidatesBeforeRouting(t *testing.T) {
	h := startCluster(t, 2, 1)
	const m = 24
	var key string
	for seed := uint64(1); seed < 64 && key == ""; seed++ {
		if k, servedBy := h.factorize(0, clusterMat(seed, m, 1)); servedBy == "n1" {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no key owned by n1 in 64 seeds")
	}

	before := [2]string{h.routeCounters(0), h.routeCounters(1)}
	for _, bad := range []map[string]any{
		{"rows": int64(1)<<32 + 1, "cols": 1, "data": []float64{3}},
		{"rows": 2, "cols": 1, "data": []float64{1, 2, 3}},
		{"rows": 0, "cols": 1, "data": []float64{}},
	} {
		var env envelope
		code, hdr := h.post(0, "/v1/update", map[string]any{"key": key, "append": bad}, nil, &env)
		if code != 400 || env.Error.Code != "bad_input" {
			t.Errorf("append %v via non-owner: status %d code %q, want 400 bad_input", bad, code, env.Error.Code)
		}
		if by := hdr.Get(cluster.ServedByHeader); by != "" {
			t.Errorf("append %v was answered by %q; want the receiving node's own rejection", bad, by)
		}
	}
	for i, was := range before {
		if now := h.routeCounters(i); now != was {
			t.Errorf("n%d route counters moved on rejected updates:\n%s\nwere:\n%s", i, now, was)
		}
	}
	if e, ok := h.srvs[1].cache.Get(key); !ok || e.A.Rows != m || e.Epoch != 0 {
		t.Errorf("series on its owner changed: resident %v, entry %+v", ok, e)
	}

	// A well-formed block takes the same path and is forwarded to the owner.
	var ur struct {
		Rows  int    `json:"rows"`
		Epoch uint64 `json:"epoch"`
	}
	code, hdr := h.post(0, "/v1/update", map[string]any{"key": key, "append": wireMat(1, 1, []float64{3})}, nil, &ur)
	if code != 200 || ur.Rows != m+1 || ur.Epoch != 1 || hdr.Get(cluster.ServedByHeader) != "n1" {
		t.Errorf("valid append via non-owner: status %d rows %d epoch %d served by %q; want 200, %d rows, epoch 1, n1",
			code, ur.Rows, ur.Epoch, hdr.Get(cluster.ServedByHeader), m+1)
	}
	h.assertInvariant(0)
}

func TestClusterForwardedRequestIsNotReforwarded(t *testing.T) {
	h := startCluster(t, 2, 1)
	// Find a matrix whose key n0 does NOT own, so an unmarked request would
	// forward; the loop-guard header must suppress that.
	for seed := uint64(1); seed < 64; seed++ {
		mat := clusterMat(seed, 24, 6)
		key, servedBy := h.factorize(1, mat) // learn the key cheaply via n1
		if servedBy != "" {
			continue // n1 forwarded it: n1 is not the owner, try another seed
		}
		if h.nodes[0].Owners(key)[0].ID != "n1" {
			continue
		}
		routedBefore := h.nodes[0].Stats().Routed
		var fr factorizeReply
		code, hdr := h.post(0, "/v1/factorize", map[string]any{"matrix": mat},
			map[string]string{cluster.ForwardHeader: "test-origin"}, &fr)
		if code != 200 {
			t.Fatalf("forward-marked factorize: status %d", code)
		}
		if hdr.Get(cluster.ServedByHeader) != "" {
			t.Errorf("forward-marked request was re-forwarded to %q", hdr.Get(cluster.ServedByHeader))
		}
		if got := h.nodes[0].Stats().Routed; got != routedBefore {
			t.Errorf("forward-marked request was counted as routed (%d -> %d)", routedBefore, got)
		}
		// Loop-guard semantics: the non-owner computed and cached locally.
		if !h.srvs[0].cache.Peek(key, true) {
			t.Error("forward-marked request did not populate the local cache")
		}
		return
	}
	t.Fatal("no seed produced a key owned by n1; ring distribution broken")
}

// TestClusterForwardCarriesRemainingDeadline: a forward is an ordinary
// client frame, and what is left of the coordinator's deadline rides in its
// deadline_ms. The peer is a fake that reads the frame's JSON metadata with
// wirefmt and encoding/json, so the check does not lean on the daemon's own
// decoder.
func TestClusterForwardCarriesRemainingDeadline(t *testing.T) {
	seen := make(chan *int64, 1)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/solve" {
			return // a health probe: 200
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("peer read: %v", err)
		}
		secs, err := wirefmt.Decode(body, nil)
		if err != nil || len(secs) == 0 || secs[0].Tag != wirefmt.TagJSON {
			t.Errorf("forwarded body is not a frame led by JSON metadata: %v", err)
		}
		var meta struct {
			DeadlineMS *int64 `json:"deadline_ms"`
		}
		if len(secs) > 0 {
			if err := json.Unmarshal(secs[0].Raw, &meta); err != nil {
				t.Errorf("forwarded metadata: %v", err)
			}
		}
		seen <- meta.DeadlineMS
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{}`))
	}))
	defer peer.Close()
	// Two members at two replicas: the peer owns every key.
	node, err := cluster.New(cluster.Config{SelfID: "n0", Replicas: 2, Members: []cluster.Member{
		{ID: "n0", Addr: "127.0.0.1:1"}, {ID: "n1", Addr: peer.Listener.Addr().String()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	s := New(Options{Workers: 1, Cluster: node, DefaultDeadline: 300 * time.Millisecond})
	defer s.Close()

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve",
		strings.NewReader(`{"key":"m3x2-abc","b":[1,2,3]}`)))
	if rec.Code != http.StatusOK || rec.Header().Get(cluster.ServedByHeader) != "n1" {
		t.Fatalf("by-key solve: status %d served by %q, want 200 from n1", rec.Code, rec.Header().Get(cluster.ServedByHeader))
	}
	d := <-seen
	if d == nil {
		t.Fatal("the forwarded frame carries no deadline_ms")
	}
	if *d < 1 || *d > 300 {
		t.Errorf("forwarded deadline_ms = %d, want within [1, 300]: what is left of the 300 ms default", *d)
	}
}

func TestClusterFallbackThenLocalHit(t *testing.T) {
	h := startCluster(t, 2, 1)
	// Find a key owned by n1 (from n0's perspective a guaranteed forward).
	var key string
	var mat map[string]any
	for seed := uint64(1); seed < 64; seed++ {
		m := clusterMat(seed, 24, 6)
		k, servedBy := h.factorize(0, m)
		if servedBy == "n1" {
			key, mat = k, m
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by n1 in 64 seeds")
	}

	h.kill(1)
	settle() // probes must notice the loss

	// The owner is gone: the same factorize now exhausts its candidates and
	// falls back to local compute — the response survives the node loss.
	var fr factorizeReply
	code, hdr := h.post(0, "/v1/factorize", map[string]any{"matrix": mat}, nil, &fr)
	if code != 200 || fr.Key != key {
		t.Fatalf("factorize after owner loss: status %d key %q", code, fr.Key)
	}
	if hdr.Get(cluster.ServedByHeader) != "" {
		t.Fatalf("served by %q, want local fallback", hdr.Get(cluster.ServedByHeader))
	}
	st := h.nodes[0].Stats()
	if st.ServedLocalFallback == 0 {
		t.Errorf("fallback not counted: %+v", st)
	}

	// Now the entry is resident locally: the next request is a local hit and
	// must not route at all.
	routedBefore := h.nodes[0].Stats().Routed
	if code, _ := h.post(0, "/v1/factorize", map[string]any{"matrix": mat}, nil, &fr); code != 200 || !fr.Cached {
		t.Fatalf("repeat factorize: status %d cached=%v", code, fr.Cached)
	}
	if got := h.nodes[0].Stats().Routed; got != routedBefore {
		t.Errorf("local hit was routed (%d -> %d)", routedBefore, got)
	}
	h.assertInvariant(0)
}

func TestClusterReplicationConverges(t *testing.T) {
	h := startCluster(t, 3, 2)
	keys := make(map[string]map[string]any)
	for seed := uint64(1); seed <= 6; seed++ {
		mat := clusterMat(seed, 24, 6)
		key, _ := h.factorize(int(seed)%3, mat)
		keys[key] = mat
	}
	// Every owner must eventually hold every key it owns (read-your-writes on
	// the computing node, async fan-out to the rest).
	deadline := time.Now().Add(5 * time.Second)
	for key := range keys {
		for _, owner := range h.nodes[0].Owners(key) {
			srv := h.srvByID(owner.ID)
			for !srv.cache.Peek(key, true) {
				if time.Now().After(deadline) {
					t.Fatalf("replica %s never received key %s", owner.ID, key)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	// And a solve-by-key through every node resolves every key.
	for key, mat := range keys {
		for node := 0; node < 3; node++ {
			if code, _ := h.solveKey(node, key, mat, node); code != 200 {
				t.Errorf("solve key %s via node %d: status %d", key, node, code)
			}
		}
	}
	for i := range h.nodes {
		h.assertInvariant(i)
	}
}

func TestClusterSolveByKeySurvivesPrimaryOwnerLoss(t *testing.T) {
	h := startCluster(t, 3, 2)
	mat := clusterMat(99, 32, 8)
	key, _ := h.factorize(0, mat)
	owners := h.nodes[0].Owners(key)
	settle() // replication to the second owner

	// Kill the primary owner; the replica (or handoff) must keep the key
	// resolvable through every survivor.
	var victim int
	for i, m := range h.members {
		if m.ID == owners[0].ID {
			victim = i
		}
	}
	h.kill(victim)
	settle()
	for node := 0; node < 3; node++ {
		if h.dead[node] {
			continue
		}
		if code, _ := h.solveKey(node, key, mat, node); code != 200 {
			t.Errorf("solve key via survivor n%d after primary loss: status %d", node, code)
		}
	}
	for i := range h.nodes {
		if !h.dead[i] {
			h.assertInvariant(i)
		}
	}
}

// --- the chaos soak --------------------------------------------------------

// TestClusterChaosSoak is the cluster tier's acceptance test: a 3-node
// in-process cluster with every cluster.* failpoint armed, keyed traffic
// through all nodes, one node killed mid-wave. It asserts
//
//   - zero lost responses: every factorize and solve answers 200 through
//     every phase, faults and node loss included;
//   - every key factored before the kill is still resolvable by solve-by-key
//     through every survivor (replica read, forward, or handoff);
//   - the forwarding accounting invariant on every survivor:
//     routed == served_remote + served_local_fallback;
//   - no handoff hints dropped;
//   - warm solve latency does not collapse after the kill (p99 within a
//     generous factor of the undisturbed phase — this guards against
//     pathological retry storms, not small jitter).
func TestClusterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a multi-second test; skipped in -short")
	}
	arm(t, "seed=7;"+
		"cluster.route=error@p=0.1;"+
		"cluster.replicate=error@p=0.2;"+
		"cluster.probe=error@p=0.02;"+
		"cluster.handoff=error@p=0.2")

	h := startCluster(t, 3, 2)
	rng := rand.New(rand.NewSource(7))
	const keysA = 18
	type keyed struct {
		key string
		mat map[string]any
	}
	var keys []keyed

	// Phase A: factor through rotating coordinators, then warm solves with
	// latencies recorded as the undisturbed baseline.
	for i := 0; i < keysA; i++ {
		mat := clusterMat(uint64(i+1), 32, 8)
		key, _ := h.factorize(i%3, mat)
		keys = append(keys, keyed{key, mat})
	}
	settle()
	// Replication convergence barrier: with replicate and handoff faults
	// armed, fan-out takes retries; the kill below may only promise "every
	// key survives" once each key's replica (or handoff hint) has actually
	// reached a survivor. Deliveries that still fail here would mean hints
	// leaking or dropping — caught by the HandoffDropped check at the end.
	for _, k := range keys {
		h.awaitReplicated(k.key, 10*time.Second)
	}
	var cleanLat []time.Duration
	for i, k := range keys {
		node := rng.Intn(3)
		t0 := time.Now()
		code, _ := h.solveKey(node, k.key, k.mat, i)
		cleanLat = append(cleanLat, time.Since(t0))
		if code != 200 {
			t.Fatalf("phase A solve %d via n%d: status %d (lost response)", i, node, code)
		}
	}

	// Kill n2 mid-wave: half the phase B factorizes land before the
	// survivors' probes can even notice.
	for i := 0; i < 3; i++ {
		mat := clusterMat(uint64(100+i), 32, 8)
		key, _ := h.factorize(i%2, mat)
		keys = append(keys, keyed{key, mat})
		h.awaitReplicated(key, 10*time.Second)
	}
	h.kill(2)
	for i := 3; i < 6; i++ {
		mat := clusterMat(uint64(100+i), 32, 8)
		key, _ := h.factorize(i%2, mat) // must still answer 200 (fatal inside otherwise)
		keys = append(keys, keyed{key, mat})
	}
	settle()

	// Phase B: every key — pre-kill and post-kill — resolvable through every
	// survivor, with latencies recorded for the flatness check.
	var killLat []time.Duration
	for _, node := range []int{0, 1} {
		for i, k := range keys {
			t0 := time.Now()
			code, _ := h.solveKey(node, k.key, k.mat, i)
			killLat = append(killLat, time.Since(t0))
			if code != 200 {
				t.Fatalf("phase B solve key %s via survivor n%d: status %d (lost response)", k.key, node, code)
			}
		}
	}

	for _, node := range []int{0, 1} {
		h.assertInvariant(node)
		st := h.nodes[node].Stats()
		if st.HandoffDropped != 0 {
			t.Errorf("n%d dropped %d handoff hints", node, st.HandoffDropped)
		}
		t.Logf("n%d stats: %+v", node, st)
	}

	// Latency flatness: the kill phase's p99 must stay within a generous
	// bound of the clean phase (10x or 500ms, whichever is larger) — warm
	// cache-tier serving must not degrade into a retry storm.
	pc, pk := p99(cleanLat), p99(killLat)
	bound := 10 * pc
	if bound < 500*time.Millisecond {
		bound = 500 * time.Millisecond
	}
	t.Logf("solve p99: clean=%s kill=%s bound=%s", pc, pk, bound)
	if pk > bound {
		t.Errorf("post-kill solve p99 %s exceeds %s (clean p99 %s)", pk, bound, pc)
	}
}

func p99(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*99)/100]
}
