package cluster

import "tcqr/internal/metrics"

// Route decisions counted under tcqrd_cluster_route_total{decision}. The
// serve layer makes the decision (it owns the request vocabulary and the
// local cache view) and reports it through Node.NoteRoute; the accounting
// invariant the chaos soak asserts is
//
//	route_total{decision="forward"} == served_remote_total + served_local_fallback_total
//
// i.e. every request routed away terminates exactly once, either relayed
// from a peer or served locally after the candidates were exhausted.
const (
	// DecisionForwardedIn: the request arrived with the loop-guard header —
	// a peer already routed it here; serve locally, never re-forward.
	DecisionForwardedIn = "forwarded_in"
	// DecisionLocalHit: the key is already resident in the local cache tier
	// (content-hashed entries are immutable, so a local copy is always
	// current regardless of ownership).
	DecisionLocalHit = "local_hit"
	// DecisionLocalOwner: this node is in the key's owner set and can serve
	// the request from its own payload (a by-key solve that misses the local
	// cache cannot, and routes as a forward instead).
	DecisionLocalOwner = "local_owner"
	// DecisionForward: the key belongs elsewhere (or is a by-key solve this
	// node cannot answer locally); try the owners in order. Per-attempt
	// failures along the way — transport errors and injected cluster.route
	// faults — count under forward_errors, not as a separate decision.
	DecisionForward = "forward"
)

// nodeMetrics holds the tcqrd_cluster_* families.
type nodeMetrics struct {
	route               *metrics.CounterVec
	servedRemote        *metrics.Counter
	servedLocalFallback *metrics.Counter
	forwardSeconds      *metrics.Histogram
	forwardErrors       *metrics.Counter
	peerState           *metrics.GaugeVec
	probes              *metrics.CounterVec
	replicate           *metrics.CounterVec
	handoffQueued       *metrics.Counter
	handoffDelivered    *metrics.Counter
	handoffDropped      *metrics.Counter
}

func newNodeMetrics(reg *metrics.Registry) *nodeMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &nodeMetrics{
		route: reg.CounterVec("tcqrd_cluster_route_total",
			"Routing decisions for keyed requests, by decision.", "decision"),
		servedRemote: reg.Counter("tcqrd_cluster_served_remote_total",
			"Forward-decided requests served by relaying a peer response."),
		servedLocalFallback: reg.Counter("tcqrd_cluster_served_local_fallback_total",
			"Forward-decided requests served locally after every candidate failed."),
		forwardSeconds: reg.Histogram("tcqrd_cluster_forward_seconds",
			"Peer forward round-trip latency in seconds.", metrics.LatencyBuckets),
		forwardErrors: reg.Counter("tcqrd_cluster_forward_errors_total",
			"Peer forward attempts that failed in transport (or by injected fault)."),
		peerState: reg.GaugeVec("tcqrd_cluster_peer_state",
			"Probed peer liveness: 2=up, 0=down.", "peer"),
		probes: reg.CounterVec("tcqrd_cluster_probes_total",
			"Peer health probes, by result.", "result"),
		replicate: reg.CounterVec("tcqrd_cluster_replicate_total",
			"Replica fan-out deliveries, by result.", "result"),
		handoffQueued: reg.Counter("tcqrd_cluster_handoff_queued_total",
			"Hints queued for handoff to a key's owner."),
		handoffDelivered: reg.Counter("tcqrd_cluster_handoff_delivered_total",
			"Hints delivered to their owner."),
		handoffDropped: reg.Counter("tcqrd_cluster_handoff_dropped_total",
			"Hints dropped (queue full or retry budget exhausted)."),
	}
}

// NoteRoute counts one routing decision (see the Decision* constants).
func (n *Node) NoteRoute(decision string) { n.m.route.With(decision).Inc() }

// NoteServedRemote counts a forward-decided request relayed from a peer.
func (n *Node) NoteServedRemote() { n.m.servedRemote.Inc() }

// NoteServedLocalFallback counts a forward-decided request served locally
// after all candidates failed.
func (n *Node) NoteServedLocalFallback() { n.m.servedLocalFallback.Inc() }
