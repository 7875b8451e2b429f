package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tcqr/internal/faultinject"
	"tcqr/internal/metrics"
	"tcqr/internal/wirefmt"
)

// ForwardHeader is the HTTP loop guard: every peer-forwarded request (and
// every replica/handoff delivery) carries it, set to the sending node's id.
// A node that sees it serves the request locally and never re-forwards.
const ForwardHeader = "X-Tcqr-Forwarded"

// ServedByHeader is set on relayed responses so clients (and the chaos soak)
// can tell which node actually served a forwarded request.
const ServedByHeader = "X-Tcqr-Served-By"

// State is a peer's last probed liveness. tcqrd_cluster_peer_state exports
// the value, so the values are the ones earlier builds exported — 2 for up,
// 0 for down, with the 1 of a retired third state unused — and a dashboard
// written against them reads the same.
type State int32

const (
	// StateDown: unreachable or failing — skipped for every forward.
	StateDown State = 0
	// StateUp: answering its health probe.
	StateUp State = 2
)

func (s State) String() string {
	if s == StateUp {
		return "up"
	}
	return "down"
}

// Config configures a cluster node.
type Config struct {
	// SelfID must match one entry of Members.
	SelfID string
	// Members is the full static membership, self included.
	Members []Member
	// Replicas is the ownership fan-out per key (clamped to the member
	// count; default 2).
	Replicas int
	// ProbeInterval is the health-probe period (default 1s); it also bounds
	// one probe round-trip and paces handoff delivery attempts.
	ProbeInterval time.Duration
	// HandoffCap bounds the queued hints (default 256; overflow drops).
	HandoffCap int
	// Registry receives the tcqrd_cluster_* metric families (nil = private).
	Registry *metrics.Registry
	// Logger receives probe transitions and handoff outcomes (nil = silent).
	Logger *slog.Logger
}

// ringVNodes is the number of virtual points per member on the ring.
const ringVNodes = 64

// Node is one member's view of the cluster: the ring, peer states, the
// forwarding client, and the handoff queue. Create with New, release with
// Close.
type Node struct {
	self    Member
	ring    *ring
	replica int
	peers   map[string]*peer
	client  *http.Client
	log     *slog.Logger
	m       *nodeMetrics

	probeInterval time.Duration

	stop   chan struct{}
	done   sync.WaitGroup
	closed sync.Once

	handoff *handoffQueue
}

type peer struct {
	member Member
	state  atomic.Int32
}

// New builds a node from cfg and starts its probe and handoff loops.
func New(cfg Config) (*Node, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("cluster: no members")
	}
	var self *Member
	for i := range cfg.Members {
		if cfg.Members[i].ID == cfg.SelfID {
			self = &cfg.Members[i]
		}
	}
	if self == nil {
		return nil, fmt.Errorf("cluster: self id %q not in member list", cfg.SelfID)
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 2
	}
	if replicas > len(cfg.Members) {
		replicas = len(cfg.Members)
	}
	probeInterval := cfg.ProbeInterval
	if probeInterval <= 0 {
		probeInterval = time.Second
	}
	n := &Node{
		self:    *self,
		ring:    newRing(cfg.Members, ringVNodes),
		replica: replicas,
		peers:   make(map[string]*peer, len(cfg.Members)),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}},
		log:           cfg.Logger,
		m:             newNodeMetrics(cfg.Registry),
		probeInterval: probeInterval,
		stop:          make(chan struct{}),
	}
	for _, m := range cfg.Members {
		if m.ID == n.self.ID {
			continue
		}
		p := &peer{member: m}
		// Peers start optimistically Up so the first requests route; the
		// prober (and forward transport errors) correct the view.
		p.state.Store(int32(StateUp))
		n.peers[m.ID] = p
		n.m.peerState.With(m.ID).Set(float64(StateUp))
	}
	cap := cfg.HandoffCap
	if cap <= 0 {
		cap = 256
	}
	n.handoff = newHandoffQueue(n, cap)
	n.done.Add(2)
	go n.probeLoop()
	go n.handoff.loop()
	return n, nil
}

// SelfID returns this node's member id.
func (n *Node) SelfID() string { return n.self.ID }

// Replicas returns the configured ownership fan-out.
func (n *Node) Replicas() int { return n.replica }

// Owners returns the key's owner set in preference order (primary first).
func (n *Node) Owners(key string) []Member { return n.ring.owners(key, n.replica) }

// IsSelf reports whether m is this node.
func (n *Node) IsSelf(m Member) bool { return m.ID == n.self.ID }

// Peers returns every member except self, sorted by id. It backs the
// last-resort reserve pass for by-key solves: an entry computed as a local
// fallback lives on the coordinator, which need not be an owner, so the only
// exhaustive candidate list is the full membership.
func (n *Node) Peers() []Member {
	out := make([]Member, 0, len(n.peers))
	for _, p := range n.peers {
		out = append(out, p.member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PeerState returns the last probed state of the given member (self is
// always Up; unknown ids are Down).
func (n *Node) PeerState(id string) State {
	if id == n.self.ID {
		return StateUp
	}
	p := n.peers[id]
	if p == nil {
		return StateDown
	}
	return State(p.state.Load())
}

// Usable reports whether a forward to m may succeed: Up peers take
// anything, Down peers nothing.
func (n *Node) Usable(m Member) bool { return n.PeerState(m.ID) == StateUp }

// MarkDown records a transport failure observed outside the prober (a failed
// forward), so subsequent requests skip the peer until a probe revives it.
func (n *Node) MarkDown(m Member) { n.setState(m.ID, StateDown) }

func (n *Node) setState(id string, s State) {
	p := n.peers[id]
	if p == nil {
		return
	}
	if old := State(p.state.Swap(int32(s))); old != s {
		n.m.peerState.With(id).Set(float64(s))
		if n.log != nil {
			n.log.Info("cluster peer state", slog.String("peer", id),
				slog.String("from", old.String()), slog.String("to", s.String()))
		}
	}
}

// BeginLeave starts a cluster-aware drain: it kicks an immediate handoff
// flush attempt so queued hints escape before shutdown.
func (n *Node) BeginLeave() { n.handoff.kick() }

// DrainHandoff synchronously attempts to deliver every queued hint until ctx
// expires, returning the number left undelivered.
func (n *Node) DrainHandoff(ctx context.Context) int { return n.handoff.drain(ctx) }

// Close stops the probe and handoff loops and closes idle peer connections.
func (n *Node) Close() {
	n.closed.Do(func() { close(n.stop) })
	n.done.Wait()
	n.client.CloseIdleConnections()
}

// --- probing ---------------------------------------------------------------

func (n *Node) probeLoop() {
	defer n.done.Done()
	t := time.NewTicker(n.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			for _, p := range n.peers {
				n.probe(p)
			}
		}
	}
}

// probe GETs one peer's /healthz and folds the answer into routing state:
// 200 → Up, anything else → Down. The body is not read for meaning: a peer
// of an earlier build whose 200 reports status degraded is up, and the 503s
// it sends for cold work are tried-next like any other 5xx.
func (n *Node) probe(p *peer) {
	if err := faultinject.Fire(SiteProbe); err != nil {
		n.m.probes.With("error").Inc()
		n.setState(p.member.ID, StateDown)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.probeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.member.Addr+"/healthz", nil)
	if err != nil {
		n.m.probes.With("error").Inc()
		n.setState(p.member.ID, StateDown)
		return
	}
	resp, err := n.client.Do(req)
	if err != nil {
		n.m.probes.With("error").Inc()
		n.setState(p.member.ID, StateDown)
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.m.probes.With("down").Inc()
		n.setState(p.member.ID, StateDown)
		return
	}
	n.m.probes.With("ok").Inc()
	n.setState(p.member.ID, StateUp)
}

// --- forwarding ------------------------------------------------------------

// ForwardResult is a peer's buffered response to a forwarded request.
type ForwardResult struct {
	Status      int
	ContentType string
	Body        []byte
}

// maxForwardBody caps a relayed peer response (matches the serve tier's
// request body cap order of magnitude).
const maxForwardBody = 256 << 20

// Forward POSTs one encoded frame to a peer and buffers the response. The
// loop-guard header is always set; acceptBinary mirrors the client's desired
// response encoding. A transport error marks the peer Down (an injected
// cluster.route fault does not — it models a routing glitch, not a dead
// peer). Status interpretation is the caller's.
func (n *Node) Forward(ctx context.Context, m Member, path string, frame []byte, acceptBinary bool) (*ForwardResult, error) {
	if err := faultinject.Fire(SiteRoute); err != nil {
		n.m.forwardErrors.Inc()
		return nil, err
	}
	start := time.Now()
	res, err := n.post(ctx, m, path, frame, acceptBinary)
	n.m.forwardSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		n.m.forwardErrors.Inc()
		n.MarkDown(m)
		return nil, err
	}
	return res, nil
}

func (n *Node) post(ctx context.Context, m Member, path string, frame []byte, acceptBinary bool) (*ForwardResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+m.Addr+path, bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", wirefmt.ContentType)
	if acceptBinary {
		req.Header.Set("Accept", wirefmt.ContentType)
	} else {
		req.Header.Set("Accept", "application/json")
	}
	req.Header.Set(ForwardHeader, n.self.ID)
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody))
	if err != nil {
		return nil, err
	}
	return &ForwardResult{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Body:        body,
	}, nil
}

// --- replication -----------------------------------------------------------

// replicateTimeout bounds one background replica delivery.
const replicateTimeout = 10 * time.Second

// Replicate asynchronously delivers a factorize frame to a replica owner
// (read-your-writes holds on the computing node; replicas converge via this
// fan-out). Delivery failures fall back to the handoff queue, which retries
// until the owner is reachable, so a momentarily down replica still
// converges.
func (n *Node) Replicate(m Member, path string, frame []byte) {
	n.done.Add(1)
	go func() {
		defer n.done.Done()
		if n.PeerState(m.ID) != StateUp {
			n.m.replicate.With("deferred").Inc()
			n.Hint(m, path, frame)
			return
		}
		if err := faultinject.Fire(SiteReplicate); err != nil {
			n.m.replicate.With("error").Inc()
			n.Hint(m, path, frame)
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), replicateTimeout)
		defer cancel()
		res, err := n.post(ctx, m, path, frame, false)
		if err != nil || res.Status/100 != 2 {
			n.m.replicate.With("error").Inc()
			n.Hint(m, path, frame)
			return
		}
		n.m.replicate.With("ok").Inc()
	}()
}

// Hint queues a frame for hinted handoff to its owner; see handoff.go. The
// queue retains frame: the caller gives it up.
func (n *Node) Hint(m Member, path string, frame []byte) { n.handoff.add(m, path, frame) }

// --- stats -----------------------------------------------------------------

// Stats is a point-in-time snapshot of the node's cluster counters, used by
// the chaos soak to assert the forwarding accounting invariant:
// Routed == ServedRemote + ServedLocalFallback.
type Stats struct {
	Routed              int64
	ServedRemote        int64
	ServedLocalFallback int64
	ForwardErrors       int64
	HandoffQueued       int64
	HandoffDelivered    int64
	HandoffDropped      int64
	ReplicateOK         int64
	ReplicateErrors     int64
}

// Stats returns the current counter snapshot.
func (n *Node) Stats() Stats {
	return Stats{
		Routed:              n.m.route.With(DecisionForward).Value(),
		ServedRemote:        n.m.servedRemote.Value(),
		ServedLocalFallback: n.m.servedLocalFallback.Value(),
		ForwardErrors:       n.m.forwardErrors.Value(),
		HandoffQueued:       n.m.handoffQueued.Value(),
		HandoffDelivered:    n.m.handoffDelivered.Value(),
		HandoffDropped:      n.m.handoffDropped.Value(),
		ReplicateOK:         n.m.replicate.With("ok").Value(),
		ReplicateErrors:     n.m.replicate.With("error").Value(),
	}
}
