package serve

import (
	"time"

	"tcqr/internal/faultinject"
	"tcqr/internal/hazard"
	"tcqr/internal/metrics"
	"tcqr/internal/tcsim"
)

// serverMetrics owns every metric family the daemon exposes on /metrics.
// All families live in one Registry so the Prometheus text endpoint, the
// /statz JSON view, and the structured request logs draw from a single
// source of truth.
//
// Naming scheme (see DESIGN.md §10): everything is prefixed tcqrd_, counters
// end in _total, durations are histograms in seconds named *_seconds.
// Label sets are bounded by construction — endpoints, status codes, error
// codes, hazard kinds, ladder actions, engine kinds, and flops buckets are
// all finite vocabularies, and the registry's per-vec series cap collapses
// anything hostile into the "_other" series.
type serverMetrics struct {
	reg *metrics.Registry

	requests  *metrics.CounterVec // by endpoint
	responses *metrics.CounterVec // by HTTP status
	errors    *metrics.CounterVec // by wire error code

	wireRequests  *metrics.CounterVec // by endpoint and encoding
	wireResponses *metrics.CounterVec // by encoding

	// Pre-resolved counters for the response fast path (see hotCounters).
	hotWireRespJSON   *metrics.Counter
	hotWireRespBinary *metrics.Counter

	stageSeconds *metrics.HistogramVec // by stage (stageNames)

	// Update endpoint counters: epochs applied by operation, aborted
	// updates, and the net row churn (|Δrows| summed over updates).
	updateApplied *metrics.CounterVec // by op: append/downdate
	updateFailed  *metrics.Counter
	updateRows    *metrics.Counter

	// Factor upgrades (upgrade.go): outcomes, the time
	// of the tasks that ran, and the refinement iterations of every solve
	// by the provenance of the R it refined with.
	upgrades       *metrics.CounterVec // by outcome
	upgradeSeconds *metrics.Histogram
	itersRGSQRF    *metrics.Histogram
	itersHouse64   *metrics.Histogram

	hazards    *metrics.CounterVec // by hazard kind
	recoveries *metrics.CounterVec // by fallback-ladder action
	panels     *metrics.CounterVec // by requested panel algorithm

	gemmCalls *metrics.CounterVec // by engine kind and flops bucket
	gemmFlops *metrics.CounterVec // by engine kind

	faultInjected *metrics.CounterVec // by failpoint site and action

	unobserve      func() // detaches the engine GEMM observer
	unobserveFault func() // detaches the fault-injection observer
}

// hotCounters is one endpoint's pre-resolved fast-path counter series:
// CounterVec.With takes a read lock per call, which is measurable contention
// at the 64-client target, so each endpoint resolves its series once, when it
// is mounted, and admit bumps plain atomic counters per request.
type hotCounters struct {
	requests   *metrics.Counter // tcqrd_requests_total{endpoint}
	wireJSON   *metrics.Counter // tcqrd_wire_requests_total{endpoint,json}
	wireBinary *metrics.Counter // tcqrd_wire_requests_total{endpoint,binary}
}

// newServerMetrics registers the daemon's families in reg and wires the
// stats-snapshot families (pool, cache, uptime) as live gauge
// functions over s, so a scrape always reads current values without a
// second bookkeeping path.
func newServerMetrics(reg *metrics.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("tcqrd_requests_total",
			"Requests received, by API endpoint.", "endpoint"),
		responses: reg.CounterVec("tcqrd_responses_total",
			"Responses written, by HTTP status code.", "status"),
		errors: reg.CounterVec("tcqrd_errors_total",
			"Failed requests, by wire error code.", "code"),
		stageSeconds: reg.HistogramVec("tcqrd_stage_duration_seconds",
			"Per-request pipeline stage latency.", metrics.LatencyBuckets, "stage"),
		hazards: reg.CounterVec("tcqrd_hazards_total",
			"Numerical hazards detected, by kind.", "kind"),
		recoveries: reg.CounterVec("tcqrd_hazard_recoveries_total",
			"Fallback-ladder recoveries applied, by action.", "action"),
		panels: reg.CounterVec("tcqrd_factorize_panel_total",
			"Factorizations started, by panel algorithm.", "panel"),
		gemmCalls: reg.CounterVec("tcqrd_engine_gemm_calls_total",
			"Engine GEMM calls, by engine kind and flops bucket.", "engine", "flops_bucket"),
		gemmFlops: reg.CounterVec("tcqrd_engine_gemm_flops_total",
			"Engine GEMM floating-point operations, by engine kind.", "engine"),
		faultInjected: reg.CounterVec("tcqrd_fault_injected_total",
			"Faults injected by the failpoint registry, by site and action.", "site", "action"),
		wireRequests: reg.CounterVec("tcqrd_wire_requests_total",
			"Requests received, by API endpoint and wire encoding.", "endpoint", "encoding"),
		wireResponses: reg.CounterVec("tcqrd_wire_responses_total",
			"Successful responses written, by wire encoding.", "encoding"),
		updateApplied: reg.CounterVec("tcqrd_update_applied_total",
			"Incremental factorization updates published, by operation.", "op"),
		updateFailed: reg.Counter("tcqrd_update_failed_total",
			"Updates aborted by compute errors (the prior epoch stayed published)."),
		updateRows: reg.Counter("tcqrd_update_rows_total",
			"Rows appended or removed across all published updates."),
	}
	m.hotWireRespJSON = m.wireResponses.With(encJSON)
	m.hotWireRespBinary = m.wireResponses.With(encBinary)

	m.upgrades = reg.CounterVec("tcqrd_factor_upgrades_total",
		"Upgrades of a hot cache entry to the float64 Householder R, by outcome: published in the entry's place, dropped (queue full or the entry moved on), or failed (no usable R).", "outcome")
	for _, o := range []string{upgradePublished, upgradeDropped, upgradeFailed} {
		m.upgrades.With(o) // every outcome scrapes, at 0 until it happens
	}
	m.upgradeSeconds = reg.Histogram("tcqrd_factor_upgrade_seconds",
		"Time of each factor upgrade task that ran, the float64 Householder factorization included.", metrics.LatencyBuckets)
	iters := reg.HistogramVec("tcqrd_refine_iterations",
		"Refinement iterations per served solve, by the provenance of the cached R: rgsqrf (the cold factor) or house64 (upgraded).",
		[]float64{1, 2, 4, 8, 12, 16, 24, 32, 64, 128, 256}, "factor")
	m.itersRGSQRF, m.itersHouse64 = iters.With(factorRGSQRF), iters.With(factorHouse64)

	reg.GaugeFunc("tcqrd_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("tcqrd_draining",
		"1 while the server is draining, 0 otherwise.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})

	reg.GaugeFunc("tcqrd_pool_queue_depth",
		"Tasks waiting in the admission queue.",
		func() float64 { return float64(s.pool.Stats().Queued) })
	reg.GaugeFunc("tcqrd_pool_in_flight",
		"Tasks currently running on workers.",
		func() float64 { return float64(s.pool.Stats().InFlight) })
	reg.CounterFunc("tcqrd_pool_completed_total",
		"Tasks completed by the worker pool.",
		func() int64 { return s.pool.Stats().Completed })
	reg.CounterFunc("tcqrd_pool_rejected_queue_full_total",
		"Submissions rejected because the queue was full (HTTP 429).",
		func() int64 { return s.pool.Stats().RejectedFull })
	reg.CounterFunc("tcqrd_pool_expired_in_queue_total",
		"Queued tasks whose deadline expired before a worker picked them up (HTTP 504).",
		func() int64 { return s.pool.Stats().Expired })

	reg.GaugeFunc("tcqrd_cache_entries",
		"Factorizations resident in the cache.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("tcqrd_cache_bytes",
		"Estimated bytes resident in the factorization cache.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	reg.CounterFunc("tcqrd_cache_hits_total",
		"Factorization cache hits.",
		func() int64 { return s.cache.Stats().Hits })
	reg.CounterFunc("tcqrd_cache_misses_total",
		"Factorization cache misses (each one factored a matrix).",
		func() int64 { return s.cache.Stats().Misses })
	reg.CounterFunc("tcqrd_cache_evictions_total",
		"Factorizations evicted by the LRU bound.",
		func() int64 { return s.cache.Stats().Evictions })
	reg.CounterFunc("tcqrd_cache_singleflight_shared_total",
		"Requests that piggybacked on another request's in-flight factorization.",
		func() int64 { return s.cache.Stats().SingleflightShared })
	reg.CounterFunc("tcqrd_cache_key_collisions_total",
		"Content-keyed lookups that found their key naming a different matrix and resolved under a salted key.",
		func() int64 { return s.cache.Stats().KeyCollisions })
	reg.CounterFunc("tcqrd_update_epochs_total",
		"Epochs published through /v1/update.",
		func() int64 { return s.cache.Stats().Updates })
	reg.CounterFunc("tcqrd_update_retired_total",
		"Entries retired because a newer epoch superseded them.",
		func() int64 { return s.cache.Stats().Retired })
	reg.CounterFunc("tcqrd_cache_rewarmed_total",
		"Entries adopted from the disk spill tier at startup.",
		func() int64 { return s.cache.Stats().Rewarmed })

	// The spill families render zeros without a -cache-dir, keeping the
	// scrape shape stable across configurations.
	spillStats := func() SpillStats {
		if s.spill == nil {
			return SpillStats{}
		}
		return s.spill.Stats()
	}
	reg.CounterFunc("tcqrd_spill_writes_total",
		"Records (a fresh base or an update's delta) durably spilled to the disk tier.",
		func() int64 { return spillStats().Writes })
	reg.CounterFunc("tcqrd_spill_written_bytes_total",
		"Bytes of the records durably spilled to the disk tier.",
		func() int64 { return spillStats().WrittenBytes })
	reg.CounterFunc("tcqrd_spill_write_errors_total",
		"Failed spill writes (the entry stayed cache-only).",
		func() int64 { return spillStats().WriteErrors })
	reg.CounterFunc("tcqrd_spill_dropped_total",
		"Spill operations shed because the write-behind queue was full.",
		func() int64 { return spillStats().Dropped })
	reg.CounterFunc("tcqrd_spill_removes_total",
		"Spill logs deleted because their series' entry was evicted.",
		func() int64 { return spillStats().Removes })
	reg.CounterFunc("tcqrd_spill_evictions_total",
		"Spill logs deleted to stay under the on-disk byte budget.",
		func() int64 { return spillStats().Evictions })
	reg.CounterFunc("tcqrd_spill_loads_total",
		"Spill files read during restart rewarm.",
		func() int64 { return spillStats().Loads })
	reg.CounterFunc("tcqrd_spill_load_errors_total",
		"Spill files that failed to load during rewarm.",
		func() int64 { return spillStats().LoadErrors })
	reg.CounterFunc("tcqrd_spill_quarantined_total",
		"Corrupt spill files and torn log tails set aside as .quarantine during rewarm.",
		func() int64 { return spillStats().Quarantined })
	reg.GaugeFunc("tcqrd_spill_files",
		"Files currently in the disk spill tier.",
		func() float64 { return float64(spillStats().Files) })
	reg.GaugeFunc("tcqrd_spill_bytes",
		"Bytes currently in the disk spill tier.",
		func() float64 { return float64(spillStats().BytesOnDisk) })

	m.unobserve = tcsim.RegisterGemmObserver(func(engine string, mm, nn, kk int) {
		flops := 2 * int64(mm) * int64(nn) * int64(kk)
		lbl := engineLabel(engine)
		m.gemmCalls.With(lbl, flopsBucket(flops)).Inc()
		m.gemmFlops.With(lbl).Add(flops)
	})
	// Site and action are both code-defined vocabularies (tcqrd refuses a
	// -fault-spec naming a site outside CheckFaultSites' list), so the label
	// set stays bounded.
	m.unobserveFault = faultinject.RegisterObserver(func(ev faultinject.Event) {
		m.faultInjected.With(ev.Site, ev.Action.String()).Inc()
	})
	return m
}

// refineIterations is the iteration histogram of an R of the given
// provenance.
func (m *serverMetrics) refineIterations(upgraded bool) *metrics.Histogram {
	if upgraded {
		return m.itersHouse64
	}
	return m.itersRGSQRF
}

func (m *serverMetrics) endpointCounters(ep string) hotCounters {
	return hotCounters{
		requests:   m.requests.With(ep),
		wireJSON:   m.wireRequests.With(ep, encJSON),
		wireBinary: m.wireRequests.With(ep, encBinary),
	}
}

// close detaches the engine and fault observers so a retired Server stops
// accumulating process-global traffic.
func (m *serverMetrics) close() {
	if m.unobserve != nil {
		m.unobserve()
		m.unobserve = nil
	}
	if m.unobserveFault != nil {
		m.unobserveFault()
		m.unobserveFault = nil
	}
}

// noteHazard counts one wire hazard, normalizing the kind to the bounded
// hazard vocabulary and counting ladder recoveries by action.
func (m *serverMetrics) noteHazard(h WireHazard) {
	m.hazards.With(normalizeHazardKind(h.Kind)).Inc()
	if h.Action != "" {
		m.recoveries.With(h.Action).Inc()
	}
}

// knownHazardKinds is the bounded set of kind labels built from the hazard
// package's own vocabulary.
var knownHazardKinds = func() map[string]bool {
	out := make(map[string]bool, 8)
	for _, k := range hazard.Kinds() {
		out[k.String()] = true
	}
	return out
}()

// normalizeHazardKind maps any kind string onto the bounded vocabulary: a
// kind the hazard package does not define collapses to "other", so no input
// can mint new label values.
func normalizeHazardKind(kind string) string {
	if knownHazardKinds[kind] {
		return kind
	}
	return "other"
}

// engineLabel maps a tcsim engine Name() to the engine= label of its kind.
func engineLabel(name string) string {
	if k, ok := tcsim.KindNamed(name); ok {
		return k.Label()
	}
	return "other"
}

// flopsBucket classifies a GEMM call into two-decade buckets of
// floating-point operations (<1e6, 1e6-1e8, 1e8-1e10, >=1e10),
// giving the shape-mix view the paper's per-kernel accounting cares about
// without unbounded (m,n,k) label explosion.
func flopsBucket(flops int64) string {
	switch {
	case flops < 1e6:
		return "<1e6"
	case flops < 1e8:
		return "1e6-1e8"
	case flops < 1e10:
		return "1e8-1e10"
	}
	return ">=1e10"
}
