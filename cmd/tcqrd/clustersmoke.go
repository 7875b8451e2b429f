package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"tcqr/internal/cluster"
	"tcqr/internal/metrics"
	"tcqr/internal/serve"
)

// runClusterSmoke boots a 3-node tcqrd cluster inside this process (ephemeral
// loopback ports, 2-way replication, fast probes), drives keyed traffic
// through every node as coordinator, then kills one node and keeps going.
// It asserts the cluster contract end to end:
//
//   - every factorize and solve answers 200, before and after the kill —
//     zero lost responses;
//   - every key factored before the kill is still resolvable by solve-by-key
//     through every survivor (local hit, replica, or forward);
//   - each survivor's forwarding accounting balances:
//     routed == served_remote + served_local_fallback.
//
// scripts/serve_smoke.sh runs it last (`make serve-smoke`, part of `make
// check-deep`); the in-process twin with fault injection is
// TestClusterChaosSoak in internal/serve.
func runClusterSmoke() int {
	const (
		nodes    = 3
		probeDt  = 50 * time.Millisecond
		settleDt = 400 * time.Millisecond
	)

	// Listeners first: the full membership (ids and addresses) must exist
	// before any node starts probing.
	lns := make([]net.Listener, nodes)
	members := make([]cluster.Member, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "cluster smoke: listen: %v\n", err)
			return 1
		}
		lns[i] = ln
		members[i] = cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: ln.Addr().String()}
	}

	type inst struct {
		node *cluster.Node
		srv  *serve.Server
		hs   *http.Server
	}
	insts := make([]*inst, nodes)
	bases := make([]string, nodes)
	for i := range insts {
		reg := metrics.NewRegistry()
		node, err := cluster.New(cluster.Config{
			SelfID:        members[i].ID,
			Members:       members,
			Replicas:      2,
			ProbeInterval: probeDt,
			Registry:      reg,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cluster smoke: node %d: %v\n", i, err)
			return 1
		}
		srv := serve.New(serve.Options{
			Workers:      2,
			QueueDepth:   64,
			CacheEntries: 64,
			Registry:     reg,
			Cluster:      node,
		})
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		insts[i] = &inst{node: node, srv: srv, hs: hs}
		bases[i] = "http://" + members[i].Addr
	}
	defer func() {
		for _, in := range insts {
			if in.hs != nil {
				in.hs.Close()
				in.node.Close()
				in.srv.Close()
			}
		}
	}()

	s := &smoker{client: &http.Client{Timeout: 30 * time.Second}}

	// Phase A: factor 12 distinct matrices, spreading coordinators across the
	// ring so forwards, local-owner serves, and local hits all occur.
	const mrows, ncols, keysA = 48, 12, 12
	type keyed struct {
		key string
		mat map[string]any
	}
	keys := make([]keyed, 0, keysA)
	for i := 0; i < keysA; i++ {
		s.base = bases[i%nodes]
		mat := clusterMatrix(mrows, ncols, uint64(i+1))
		var fr struct {
			Key string `json:"key"`
		}
		code, err := s.post("/v1/factorize", map[string]any{"matrix": mat}, &fr)
		s.check(err == nil && code == 200 && fr.Key != "",
			fmt.Sprintf("phase A factorize %d via %s succeeds", i, insts[i%nodes].node.SelfID()),
			"code=%d key=%q err=%v", code, fr.Key, err)
		keys = append(keys, keyed{key: fr.Key, mat: mat})
	}
	// Let the replica fan-out land before reading through other nodes.
	time.Sleep(settleDt)

	solveKey := func(base string, k keyed, what string) {
		s.base = base
		xTrue := make([]float64, ncols)
		for j := range xTrue {
			xTrue[j] = float64(j%5) - 2
		}
		var sr struct {
			X []float64 `json:"x"`
		}
		code, err := s.post("/v1/solve", map[string]any{"key": k.key, "b": matVec(k.mat, xTrue)}, &sr)
		ok := err == nil && code == 200 && maxAbsDiff(sr.X, xTrue) < 1e-6
		s.check(ok, what, "code=%d err=%v diff=%g", code, err, maxAbsDiff(sr.X, xTrue))
	}
	for i, k := range keys {
		solveKey(bases[(i+1)%nodes], k,
			fmt.Sprintf("phase A solve-by-key %d via a non-computing node succeeds", i))
	}

	// Kill n2 abruptly (no drain — this models node loss, not a deploy).
	victim := insts[nodes-1]
	victim.hs.Close()
	victim.node.Close()
	victim.srv.Close()
	insts[nodes-1].hs = nil
	fmt.Printf("ok   killed node %s mid-run\n", victim.node.SelfID())
	time.Sleep(4 * probeDt) // let the survivors' probes mark it down

	// Phase B: the survivors absorb everything. New keys must still factor
	// (a forward to the dead owner falls back to local compute), and every
	// phase A key must resolve through every survivor.
	survivors := []int{0, 1}
	for i := 0; i < 6; i++ {
		coord := survivors[i%len(survivors)]
		s.base = bases[coord]
		mat := clusterMatrix(mrows, ncols, uint64(100+i))
		var fr struct {
			Key string `json:"key"`
		}
		code, err := s.post("/v1/factorize", map[string]any{"matrix": mat}, &fr)
		s.check(err == nil && code == 200 && fr.Key != "",
			fmt.Sprintf("phase B factorize %d with a node down succeeds", i),
			"code=%d key=%q err=%v", code, fr.Key, err)
		keys = append(keys, keyed{key: fr.Key, mat: mat})
	}
	time.Sleep(settleDt)
	for _, si := range survivors {
		for i, k := range keys {
			solveKey(bases[si], k,
				fmt.Sprintf("key %d resolvable via survivor %s", i, insts[si].node.SelfID()))
		}
	}

	// The accounting invariant: every routed request terminated exactly once.
	for _, si := range survivors {
		st := insts[si].node.Stats()
		s.check(st.Routed == st.ServedRemote+st.ServedLocalFallback,
			fmt.Sprintf("%s forwarding accounting balances", insts[si].node.SelfID()),
			"routed=%d served_remote=%d served_local_fallback=%d",
			st.Routed, st.ServedRemote, st.ServedLocalFallback)
		s.check(st.HandoffDropped == 0,
			fmt.Sprintf("%s dropped no handoff hints", insts[si].node.SelfID()),
			"dropped=%d", st.HandoffDropped)
		fmt.Printf("ok   %s stats: routed=%d remote=%d fallback=%d fwd_errs=%d handoff(q=%d,d=%d) replicate(ok=%d,err=%d)\n",
			insts[si].node.SelfID(), st.Routed, st.ServedRemote, st.ServedLocalFallback,
			st.ForwardErrors, st.HandoffQueued, st.HandoffDelivered, st.ReplicateOK, st.ReplicateErrors)
	}

	if s.failed {
		fmt.Fprintln(os.Stderr, "CLUSTER SMOKE FAILED")
		return 1
	}
	fmt.Println("CLUSTER SMOKE OK")
	return 0
}

// clusterMatrix builds a deterministic well-conditioned column-major wire
// matrix; distinct seeds give distinct content hashes (distinct cache keys).
func clusterMatrix(m, n int, seed uint64) map[string]any {
	state := seed*0x9E3779B97F4A7C15 + 1
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/float64(uint64(1)<<53) - 0.5
	}
	data := make([]float64, m*n)
	for i := range data {
		data[i] = next()
	}
	// Diagonal boost keeps every test matrix comfortably full-rank.
	for j := 0; j < n && j < m; j++ {
		data[j*m+j] += 2
	}
	return map[string]any{"rows": m, "cols": n, "data": data}
}
