package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newTestNode builds a two-member node ("self" plus one peer at peerAddr)
// with a probe interval long enough that background loops stay out of the
// test's way; state changes are driven explicitly.
func newTestNode(t *testing.T, peerAddr string) *Node {
	t.Helper()
	n, err := New(Config{
		SelfID: "self",
		Members: []Member{
			{ID: "self", Addr: "127.0.0.1:1"},
			{ID: "peer", Addr: peerAddr},
		},
		Replicas:      2,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func hostport(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	return strings.TrimPrefix(ts.URL, "http://")
}

// eventually polls cond for up to a second (background sends are async).
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestProbeStateTransitions(t *testing.T) {
	var status atomic.Value
	status.Store(`{"status":"ok"}`)
	var code atomic.Int32
	code.Store(http.StatusOK)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("probe hit %s, want /healthz", r.URL.Path)
		}
		w.WriteHeader(int(code.Load()))
		fmt.Fprint(w, status.Load().(string))
	}))
	defer ts.Close()
	n := newTestNode(t, hostport(t, ts))
	p := n.peers["peer"]

	n.probe(p)
	if got := n.PeerState("peer"); got != StateUp {
		t.Fatalf("after ok probe: %v", got)
	}

	// An earlier build answers 200 with status degraded while its breaker is
	// open: the body is not read, so that peer is up.
	const earlierBuildStatus = `degraded`
	status.Store(`{"status":"` + earlierBuildStatus + `"}`)
	n.probe(p)
	if got := n.PeerState("peer"); got != StateUp {
		t.Fatalf("after 200 degraded-body probe: %v, want up", got)
	}

	code.Store(http.StatusServiceUnavailable)
	n.probe(p)
	if got := n.PeerState("peer"); got != StateDown {
		t.Fatalf("after 503 probe: %v", got)
	}

	// Recovery: healthy again flips straight back to Up.
	code.Store(http.StatusOK)
	status.Store(`{"status":"ok"}`)
	n.probe(p)
	if got := n.PeerState("peer"); got != StateUp {
		t.Fatalf("after recovery probe: %v", got)
	}
}

func TestProbeUnreachablePeerGoesDown(t *testing.T) {
	// A closed listener: connection refused.
	ts := httptest.NewServer(http.NewServeMux())
	addr := hostport(t, ts)
	ts.Close()
	n := newTestNode(t, addr)
	n.probe(n.peers["peer"])
	if got := n.PeerState("peer"); got != StateDown {
		t.Fatalf("unreachable peer state = %v, want down", got)
	}
}

func TestUsable(t *testing.T) {
	n := newTestNode(t, "127.0.0.1:2")
	peer := Member{ID: "peer"}
	self := Member{ID: "self"}
	cases := []struct {
		state State
		want  bool
	}{
		{StateUp, true},
		{StateDown, false},
	}
	for _, c := range cases {
		n.setState("peer", c.state)
		if got := n.Usable(peer); got != c.want {
			t.Errorf("Usable(%v) = %v, want %v", c.state, got, c.want)
		}
	}
	// Self is always usable (the local-owner decision never consults peers,
	// but the invariant should hold anyway).
	if !n.Usable(self) {
		t.Error("self not usable")
	}
}

func TestForwardSetsLoopGuardAndRelaysStatus(t *testing.T) {
	var gotForwarded atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotForwarded.Store(r.Header.Get(ForwardHeader))
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":{"code":"busy"}}`)
	}))
	defer ts.Close()
	n := newTestNode(t, hostport(t, ts))

	res, err := n.Forward(context.Background(), Member{ID: "peer", Addr: hostport(t, ts)}, "/v1/solve", []byte("frame"), false)
	if err != nil {
		t.Fatal(err)
	}
	if gotForwarded.Load().(string) != "self" {
		t.Fatalf("loop-guard header = %q, want self", gotForwarded.Load())
	}
	if res.Status != http.StatusTooManyRequests {
		t.Fatalf("result = %+v", res)
	}
	// A non-2xx response is still a successful transport: the peer stays Up
	// (the caller decides to try the next candidate).
	if got := n.PeerState("peer"); got != StateUp {
		t.Fatalf("peer state after 429 = %v, want up", got)
	}
}

func TestForwardTransportErrorMarksDown(t *testing.T) {
	ts := httptest.NewServer(http.NewServeMux())
	addr := hostport(t, ts)
	ts.Close()
	n := newTestNode(t, addr)
	_, err := n.Forward(context.Background(), Member{ID: "peer", Addr: addr}, "/v1/solve", nil, false)
	if err == nil {
		t.Fatal("forward to a dead peer should error")
	}
	if got := n.PeerState("peer"); got != StateDown {
		t.Fatalf("peer state = %v, want down", got)
	}
	if st := n.Stats(); st.ForwardErrors == 0 {
		t.Error("forward error not counted")
	}
}

func TestReplicateDeliversWhenUp(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(ForwardHeader) == "" {
			t.Error("replica delivery missing the loop-guard header")
		}
		hits.Add(1)
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()
	n := newTestNode(t, hostport(t, ts))
	n.Replicate(Member{ID: "peer", Addr: hostport(t, ts)}, "/v1/factorize", []byte("frame"))
	eventually(t, "replica delivery", func() bool { return n.Stats().ReplicateOK == 1 })
	if hits.Load() != 1 {
		t.Fatalf("peer saw %d deliveries, want 1", hits.Load())
	}
}

func TestReplicateDefersToHandoffWhenDown(t *testing.T) {
	n := newTestNode(t, "127.0.0.1:2")
	n.setState("peer", StateDown)
	n.Replicate(Member{ID: "peer", Addr: "127.0.0.1:2"}, "/v1/factorize", []byte("frame"))
	eventually(t, "deferred hint", func() bool { return n.handoff.pending() == 1 })
	if st := n.Stats(); st.HandoffQueued != 1 || st.ReplicateOK != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHandoffDeliversWhenOwnerReturns(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()
	n := newTestNode(t, hostport(t, ts))
	owner := Member{ID: "peer", Addr: hostport(t, ts)}

	n.setState("peer", StateDown)
	n.Hint(owner, "/v1/factorize", []byte("frame"))
	// A delivery pass while the owner is down must keep the hint queued
	// without consuming retry budget.
	n.handoff.deliverPass(context.Background())
	if p := n.handoff.pending(); p != 1 {
		t.Fatalf("pending after down pass = %d, want 1", p)
	}
	if hits.Load() != 0 {
		t.Fatal("delivered to a down owner")
	}

	n.setState("peer", StateUp)
	n.handoff.deliverPass(context.Background())
	if st := n.Stats(); st.HandoffDelivered != 1 || n.handoff.pending() != 0 {
		t.Fatalf("after up pass: delivered=%d pending=%d", st.HandoffDelivered, n.handoff.pending())
	}
	if hits.Load() != 1 {
		t.Fatalf("owner saw %d deliveries, want 1", hits.Load())
	}
}

func TestHandoffRetryBudgetDrops(t *testing.T) {
	// Owner is Up but rejects every delivery: the hint burns its budget and
	// is eventually dropped (counted, not retried forever).
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	n := newTestNode(t, hostport(t, ts))
	n.Hint(Member{ID: "peer", Addr: hostport(t, ts)}, "/v1/factorize", []byte("frame"))
	for i := 0; i < hintRetryBudget; i++ {
		n.handoff.deliverPass(context.Background())
	}
	if st := n.Stats(); st.HandoffDropped != 1 || n.handoff.pending() != 0 {
		t.Fatalf("dropped=%d pending=%d, want 1/0", st.HandoffDropped, n.handoff.pending())
	}
}

func TestHandoffQueueOverflowDrops(t *testing.T) {
	n, err := New(Config{
		SelfID: "self",
		Members: []Member{
			{ID: "self", Addr: "127.0.0.1:1"},
			{ID: "peer", Addr: "127.0.0.1:2"},
		},
		ProbeInterval: time.Hour,
		HandoffCap:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	owner := Member{ID: "peer", Addr: "127.0.0.1:2"}
	n.setState("peer", StateDown)
	for i := 0; i < 3; i++ {
		n.Hint(owner, "/v1/factorize", []byte("frame"))
	}
	st := n.Stats()
	if st.HandoffQueued != 2 || st.HandoffDropped != 1 {
		t.Fatalf("queued=%d dropped=%d, want 2/1", st.HandoffQueued, st.HandoffDropped)
	}
}

func TestDrainHandoffDeliversEverything(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()
	n := newTestNode(t, hostport(t, ts))
	owner := Member{ID: "peer", Addr: hostport(t, ts)}
	for i := 0; i < 5; i++ {
		n.Hint(owner, "/v1/factorize", []byte("frame"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if left := n.DrainHandoff(ctx); left != 0 {
		t.Fatalf("drain left %d hints", left)
	}
	if hits.Load() != 5 {
		t.Fatalf("owner saw %d deliveries, want 5", hits.Load())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{SelfID: "x", Members: nil}); err == nil {
		t.Error("empty membership should fail")
	}
	if _, err := New(Config{SelfID: "ghost", Members: testMembers(2)}); err == nil {
		t.Error("self id outside the membership should fail")
	}
	// Replicas clamp to the member count.
	n, err := New(Config{SelfID: "n0", Members: testMembers(2), Replicas: 9, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Replicas() != 2 {
		t.Errorf("Replicas = %d, want clamped 2", n.Replicas())
	}
}

func TestStateString(t *testing.T) {
	if StateUp.String() != "up" || StateDown.String() != "down" {
		t.Error("state strings drifted from the metric documentation")
	}
	// tcqrd_cluster_peer_state exports the value; earlier builds exported
	// these two, and dashboards read them.
	if StateUp != 2 || StateDown != 0 {
		t.Errorf("StateUp = %d, StateDown = %d; the exported values are 2 and 0", StateUp, StateDown)
	}
}
