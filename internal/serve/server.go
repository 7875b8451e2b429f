package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcqr"
	"tcqr/internal/cluster"
	"tcqr/internal/faultinject"
	"tcqr/internal/hazard"
	"tcqr/internal/metrics"
	"tcqr/internal/wirefmt"
)

// Options configures a Server. Zero values select sensible production
// defaults (see New).
type Options struct {
	// Workers is the compute worker count (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (0 = 64). Submissions past the
	// bound are rejected with 429 immediately.
	QueueDepth int
	// CacheEntries bounds the factorization cache (0 = 32 entries, LRU).
	CacheEntries int
	// CacheMaxBytes additionally bounds the cache's estimated resident
	// bytes (0 = entry count only): the LRU tail is evicted until both
	// bounds hold, so a handful of huge factors cannot blow past memory
	// while tiny entries are evicted needlessly.
	CacheMaxBytes int64
	// CacheDir enables the write-behind disk spill tier: published
	// factorizations persist under this directory (checksummed, atomically
	// renamed) and a restarted server rewarms its cache from them instead
	// of cold-factorizing ("" = no persistence).
	CacheDir string
	// SpillMaxBytes bounds the spill tier's on-disk footprint; oldest files
	// are deleted first (0 = unbounded). Ignored without CacheDir.
	SpillMaxBytes int64
	// Window is the coalescing window: same-factorization solves arriving
	// within it share one multi-RHS call. 0 disables coalescing; tcqrd
	// defaults it to 2ms.
	Window time.Duration
	// MaxBatch caps a coalesced batch; a full batch flushes before its
	// window closes (0 = 32).
	MaxBatch int
	// DefaultDeadline bounds each request when the client sends no
	// deadline_ms (0 = 30s).
	DefaultDeadline time.Duration
	// MaxBodyBytes caps request bodies (0 = 64 MiB).
	MaxBodyBytes int64
	// MaxElements caps rows*cols of an uploaded matrix (0 = 8Mi elements).
	MaxElements int
	// Retry bounds automatic retries of transient internal failures —
	// recovered compute panics and injected faults — before a 500 is
	// surfaced. Zero fields select the production defaults documented on
	// RetryPolicy.
	Retry RetryPolicy
	// DegradeThreshold is the number of consecutive internal failures that
	// trips degraded (cache-only) serving (0 = 5; negative disables the
	// breaker).
	DegradeThreshold int
	// DegradeCooldown is how long a degraded trip lasts (0 = 10s).
	DegradeCooldown time.Duration
	// StageTimeout bounds each compute attempt independently of the request
	// deadline, so one wedged attempt can be retried while the request still
	// has budget (0 = disabled).
	StageTimeout time.Duration
	// StreamTTL is the idle deadline of a chunked-upload session: a session
	// with no append or commit for this long is reaped, and its buffered row
	// blocks released (0 = 2m).
	StreamTTL time.Duration
	// MaxStreamSessions caps concurrently open chunked-upload sessions;
	// begins past the cap are rejected with 429 (0 = 16).
	MaxStreamSessions int
	// DefaultEngine is applied to requests that leave Config.engine unset
	// (zero value = the library default, fp16). A request that names an
	// engine always wins — the default changes what "unset" means, not what
	// clients may ask for.
	DefaultEngine tcqr.Engine
	// Backend routes compute; nil = LibraryBackend. Tests install counting
	// or delaying backends here.
	Backend Backend
	// Registry receives the server's metric families (nil = a private
	// registry, reachable via Metrics). Pass a shared registry to mount
	// additional families beside the server's own.
	Registry *metrics.Registry
	// Cluster attaches this server to a tcqrd cluster node (nil = single-node
	// serving, no routing). Keyed requests route to their owners over binary
	// frames; see internal/cluster and DESIGN.md §14. Pass the same Registry
	// to both so the tcqrd_cluster_* families render beside the server's own.
	Cluster *cluster.Node
	// Logger receives one structured record per request (nil = request
	// logging disabled). Lifecycle logging stays with the caller; this
	// logger only sees request-scoped records.
	Logger *slog.Logger
}

// Server is the serving core: cache + coalescer + pool behind an
// http.Handler. Create with New, mount Handler, call BeginDrain / AwaitIdle
// around shutdown, and Close when retiring the server (it detaches the
// process-global engine-GEMM observer).
type Server struct {
	opts     Options
	backend  Backend
	updater  Updater
	cache    *FactorCache
	spill    *SpillTier
	coal     *Coalescer
	pool     *Pool
	streams  *streamRegistry
	cluster  *cluster.Node
	start    time.Time
	draining atomic.Bool
	brk      *breaker
	metrics  *serverMetrics
	log      *slog.Logger

	reaperStop chan struct{}
	closeOnce  sync.Once
}

// New builds a Server from opts, filling in defaults for zero fields.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 32
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 32
	}
	if opts.DefaultDeadline <= 0 {
		opts.DefaultDeadline = 30 * time.Second
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	if opts.MaxElements <= 0 {
		opts.MaxElements = 8 << 20
	}
	if opts.DegradeThreshold == 0 {
		opts.DegradeThreshold = 5
	}
	if opts.DegradeCooldown <= 0 {
		opts.DegradeCooldown = 10 * time.Second
	}
	if opts.StreamTTL <= 0 {
		opts.StreamTTL = 2 * time.Minute
	}
	if opts.MaxStreamSessions <= 0 {
		opts.MaxStreamSessions = 16
	}
	opts.Retry = opts.Retry.withDefaults()
	if opts.Backend == nil {
		opts.Backend = LibraryBackend{}
	}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	s := &Server{
		opts:       opts,
		backend:    opts.Backend,
		pool:       NewPool(opts.Workers, opts.QueueDepth),
		streams:    newStreamRegistry(opts.StreamTTL, opts.MaxStreamSessions),
		cluster:    opts.Cluster,
		start:      time.Now(),
		log:        opts.Logger,
		reaperStop: make(chan struct{}),
	}
	s.brk = &breaker{cooldown: opts.DegradeCooldown}
	if opts.DegradeThreshold > 0 {
		s.brk.threshold = int64(opts.DegradeThreshold)
	}
	s.cache = NewFactorCache(opts.CacheEntries, s.backend)
	s.cache.SetByteBudget(opts.CacheMaxBytes)
	// Updates route through the backend when it implements the optional
	// Updater capability, and fall back to the library implementation so a
	// counting/faking Backend still serves /v1/update.
	if up, ok := s.backend.(Updater); ok {
		s.updater = up
	} else {
		s.updater = LibraryBackend{}
	}
	if opts.CacheDir != "" {
		sp, err := NewSpillTier(opts.CacheDir, opts.SpillMaxBytes)
		if err != nil {
			if s.log != nil {
				s.log.Warn("spill tier disabled", slog.String("dir", opts.CacheDir), slog.String("error", err.Error()))
			}
		} else {
			s.spill = sp
			s.cache.attachSpill(sp)
			// Rewarm synchronously, before the first request: a bounced
			// daemon serves by-key cache hits immediately instead of
			// stampeding cold factorizes.
			for _, e := range sp.Rewarm() {
				s.cache.AdoptRewarmed(e)
			}
		}
	}
	s.coal = NewCoalescer(opts.Window, opts.MaxBatch, s.backend, func(fn func()) error {
		_, err := s.pool.Do(context.Background(), fn)
		return err
	})
	s.coal.retain = s.cache.Acquire
	s.coal.release = s.cache.Release
	s.metrics = newServerMetrics(opts.Registry, s)
	s.coal.onFlush = func(size int) { s.metrics.batchSize.Observe(float64(size)) }
	s.streams.reaped = func(n int) { s.metrics.streamReaped.Add(int64(n)) }
	go s.streamReaper(s.reaperStop)
	return s
}

// Cache exposes the factorization cache (benchmarks reset it to measure the
// cold path).
func (s *Server) Cache() *FactorCache { return s.cache }

// reqConfig translates a request's wire config, filling an unset engine
// with the server's DefaultEngine: the substitution happens ahead of
// CacheKey derivation, so a defaulted request and an explicit one asking
// for the same engine share a cache entry.
func (s *Server) reqConfig(w WireConfig) (tcqr.Config, error) {
	cfg, err := w.config()
	if w.Engine == "" {
		cfg.Engine = s.opts.DefaultEngine
	}
	return cfg, err
}

// CoalescerStats exposes the coalescer counters (tests assert one multi-RHS
// call per batch through them).
func (s *Server) CoalescerStats() CoalescerStats { return s.coal.Stats() }

// Metrics exposes the server's metrics registry (the same one /metrics
// renders).
func (s *Server) Metrics() *metrics.Registry { return s.metrics.reg }

// Close detaches the server's engine-GEMM observer and stops the stream
// session reaper. Call when retiring a Server whose process keeps running
// (tests, embedders); idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.reaperStop)
		if s.spill != nil {
			s.spill.Close()
		}
	})
	s.metrics.close()
}

// BeginDrain flips the server to draining: /healthz turns 503, new compute
// requests are rejected, every parked coalesced batch is flushed so
// in-flight requests complete promptly, and every open chunked-upload
// session is reaped (a begin-without-commit client gets unknown_stream and
// must restart against the replacement instance). On a cluster node the
// drain is cluster-aware: peers probing the 503 healthz mark this node down
// and stop forwarding to it, and the node's queued handoff hints get an
// immediate flush attempt (see also cluster.Node.DrainHandoff for a blocking
// flush at shutdown). Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.coal.PendingFlush()
	s.streams.reapAll()
	if s.cluster != nil {
		s.cluster.BeginLeave()
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// AwaitIdle blocks until the worker pool has no queued or running work, or
// ctx expires. Call after the HTTP server has stopped accepting requests.
func (s *Server) AwaitIdle(ctx context.Context) error { return s.pool.AwaitIdle(ctx) }

// Handler returns the HTTP API: POST /v1/factorize, /v1/factorize/stream/
// {begin,append,commit,abort}, /v1/solve, /v1/update, /v1/lowrank; GET
// /healthz, /statz, /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/factorize", s.handleFactorize)
	mux.HandleFunc("/v1/factorize/stream/begin", s.handleStreamBegin)
	mux.HandleFunc("/v1/factorize/stream/append", s.handleStreamAppend)
	mux.HandleFunc("/v1/factorize/stream/commit", s.handleStreamCommit)
	mux.HandleFunc("/v1/factorize/stream/abort", s.handleStreamAbort)
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/update", s.handleUpdate)
	mux.HandleFunc("/v1/lowrank", s.handleLowRank)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.Handle("/metrics", s.metrics.reg)
	return mux
}

// reqScope carries one request's instrumentation through its handler: the
// hazard/timing report, the identifiers the structured log line wants
// (filled in as the handler learns them), and the terminal-status
// bookkeeping shared by ok and fail.
type reqScope struct {
	s        *Server
	endpoint string
	method   string
	rep      *hazard.Report
	start    time.Time

	// binReq/frameResp record the negotiated encodings (see binwire.go);
	// bodyBuf is the pooled frame buffer backing a binary request, released
	// by releaseBody unless retainBody was set (a deadline-abandoned solve
	// batch may still read the zero-copy right-hand side view).
	binReq     bool
	frameResp  bool
	bodyBuf    []byte
	retainBody bool
	respCT     string // response Content-Type; empty selects application/json

	// forwarded marks a request that arrived with the cluster loop-guard
	// header: a peer routed it here, so it is served locally, never
	// re-forwarded.
	forwarded bool

	key         string
	rows, cols  int
	batched     int
	errCode     string
	hazardKinds []string
	repCounted  bool
}

// releaseBody returns the pooled request buffer, unless a still-running
// batch may alias it. Call only after the response is fully written.
func (rc *reqScope) releaseBody() {
	if rc.bodyBuf != nil && !rc.retainBody {
		wirefmt.PutBuffer(rc.bodyBuf)
		rc.bodyBuf = nil
	}
}

// admit is the common front door of the compute endpoints: method check,
// drain check, encoding negotiation, request accounting, body cap.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string) (*reqScope, bool) {
	rc := &reqScope{
		s:        s,
		endpoint: endpoint,
		method:   r.Method,
		rep:      &hazard.Report{},
		start:    time.Now(),
	}
	rc.binReq = isFrameRequest(r)
	rc.frameResp = wantsFrameResponse(r, rc.binReq)
	rc.forwarded = r.Header.Get(cluster.ForwardHeader) != ""
	// Hot counters are pre-resolved per endpoint/encoding at construction:
	// the CounterVec lookup takes a read lock per call, which is measurable
	// contention at the 64-client coalesced throughput target.
	if hot, ok := s.metrics.hot[endpoint]; ok {
		hot.requests.Inc()
		if rc.binReq {
			hot.wireBinary.Inc()
		} else {
			hot.wireJSON.Inc()
		}
	} else {
		s.metrics.requests.With(endpoint).Inc()
	}
	if r.Method != http.MethodPost {
		rc.fail(w, &apiError{status: http.StatusMethodNotAllowed, code: "method_not_allowed",
			msg: fmt.Sprintf("%s requires POST", r.URL.Path)})
		return nil, false
	}
	if s.draining.Load() {
		rc.fail(w, classifyError(ErrDraining))
		return nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	return rc, true
}

// requestContext derives the request's compute deadline: the client's
// deadline_ms when given, the server default otherwise, whichever is
// sooner.
func (s *Server) requestContext(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultDeadline
	if deadlineMS > 0 {
		if cd := time.Duration(deadlineMS) * time.Millisecond; cd < d {
			d = cd
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// resolveMatrix validates an uploaded matrix against the size cap.
func (s *Server) resolveMatrix(wm *WireMatrix) (*tcqr.Matrix, *apiError) {
	a, err := wm.matrix()
	if err != nil {
		return nil, classifyError(err)
	}
	// matrix() guarantees Rows*Cols == len(Data), so the product is an exact
	// int; the int64 widening keeps this cap overflow-proof regardless.
	if n := int64(a.Rows) * int64(a.Cols); n > int64(s.opts.MaxElements) {
		return nil, &apiError{status: http.StatusRequestEntityTooLarge, code: "too_large",
			msg: fmt.Sprintf("matrix has %d elements; the server caps uploads at %d", n, s.opts.MaxElements)}
	}
	return a, nil
}

// retryDo runs one compute stage under the server's retry policy. Each
// attempt optionally runs under its own StageTimeout-derived context; an
// attempt killed by the stage bound while the request itself is still alive
// is lifted to errStageTimeout, which is retryable — a wedged attempt does
// not doom a request with deadline budget left. Every retry is recorded in
// the request's hazard report (KindTransient) and the retry metrics; a
// transient failure that survives the whole policy bumps the exhausted
// counter on its way to becoming a 500.
func (s *Server) retryDo(ctx context.Context, rc *reqScope, stage string, fn func(ctx context.Context) error) error {
	rt := newRetrier(s.opts.Retry)
	rt.onRetry = func(attempt int, err error, d time.Duration) {
		s.metrics.retryAttempts.With(rc.endpoint).Inc()
		s.metrics.retryBackoff.ObserveDuration(d)
		rc.rep.Record(hazard.Event{
			Kind:   hazard.KindTransient,
			Stage:  stage,
			Detail: fmt.Sprintf("attempt %d: %v", attempt, err),
			Action: fmt.Sprintf("retry after %s", d.Round(10*time.Microsecond)),
		})
	}
	err := rt.do(ctx, func() error {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if s.opts.StageTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, s.opts.StageTimeout)
		}
		defer cancel()
		aerr := fn(actx)
		if aerr != nil && actx.Err() != nil && ctx.Err() == nil {
			aerr = errStageTimeout
		}
		return aerr
	})
	if err != nil && retryable(err) {
		s.metrics.retryExhausted.With(rc.endpoint).Inc()
	}
	return err
}

// degradedReject returns the rejection for cold compute while the breaker
// is tripped, or nil when the server is healthy.
func (s *Server) degradedReject() *apiError {
	rem, deg := s.brk.degraded()
	if !deg {
		return nil
	}
	s.brk.rejected.Add(1)
	return degradedError(rem)
}

// factorEntry runs GetOrFactor through the pool under the retry policy,
// recording queue and (on non-hit sources) factorize stage timings plus the
// panel counter for factorizations actually performed. While the server is
// degraded only the cache answers: a resident factorization is served as a
// hit, anything cold is rejected with 503 + Retry-After.
func (s *Server) factorEntry(ctx context.Context, rc *reqScope, key string, a *tcqr.Matrix, cfg tcqr.Config) (*Entry, Source, error) {
	if rem, deg := s.brk.degraded(); deg {
		if e, ok := s.cache.Get(key); ok {
			return e, SourceHit, nil
		}
		s.brk.rejected.Add(1)
		return nil, 0, degradedError(rem)
	}
	var (
		entry *Entry
		src   Source
	)
	err := s.retryDo(ctx, rc, "factorize", func(actx context.Context) error {
		var ferr error
		wait, perr := s.pool.Do(actx, func() {
			t0 := time.Now()
			entry, src, ferr = s.cache.GetOrFactor(key, a, cfg)
			if src != SourceHit {
				rc.rep.RecordTiming("factorize", time.Since(t0))
			}
		})
		if perr != nil {
			return perr
		}
		rc.rep.RecordTiming("queue", wait)
		if src == SourceMiss {
			s.metrics.panels.With(cfg.Panel.String()).Inc()
		}
		return ferr
	})
	if err != nil {
		return nil, 0, err
	}
	// A miss that ran through the parallel TSQR pipeline carries per-stage
	// timings; fold them into the tcqrd_tsqr_* families exactly once (hits
	// and shared waiters reuse a factorization someone else already counted).
	if src == SourceMiss && entry.F != nil && entry.F.TSQR != nil {
		s.metrics.observeTSQR(entry.F.TSQR)
	}
	return entry, src, nil
}

func (s *Server) handleFactorize(w http.ResponseWriter, r *http.Request) {
	rc, ok := s.admit(w, r, "factorize")
	if !ok {
		return
	}
	var req factorizeRequest
	if rc.binReq {
		// The matrix is copied out of the frame during decode (it outlives
		// the request in the cache), so the pooled buffer can be released as
		// soon as decoding ends.
		body, aerr := readFrameBody(r)
		if aerr != nil {
			rc.fail(w, aerr)
			return
		}
		preq, aerr := decodeFactorizeFrame(body, nil)
		wirefmt.PutBuffer(body)
		if aerr != nil {
			rc.fail(w, aerr)
			return
		}
		req = *preq
	} else if err := decodeJSON(r.Body, &req); err != nil {
		rc.fail(w, classifyError(err))
		return
	}
	a, aerr := s.resolveMatrix(req.Matrix)
	if aerr != nil {
		rc.fail(w, aerr)
		return
	}
	rc.rows, rc.cols = a.Rows, a.Cols
	cfg, err := s.reqConfig(req.Config)
	if err != nil {
		rc.fail(w, classifyError(err))
		return
	}
	ctx, cancel := s.requestContext(r, req.DeadlineMS)
	defer cancel()
	key := CacheKey(a, cfg)
	rc.key = key
	if s.maybeForwardFactorize(w, rc, ctx, &req, a, key) {
		return
	}
	entry, src, ferr := s.factorEntry(ctx, rc, key, a, cfg)
	if ferr != nil {
		rc.fail(w, classifyError(ferr))
		return
	}
	defer s.cache.Release(entry)
	if src == SourceMiss {
		s.clusterReplicate(key, a, req.Config)
	}
	f := entry.F
	rc.ok(w, factorizeResponse{
		Key:              key,
		Rows:             a.Rows,
		Cols:             a.Cols,
		Cached:           src == SourceHit,
		Shared:           src == SourceShared,
		Reorthogonalized: f.Reorthogonalized,
		EngineStats: wireEngineStats{
			GemmCalls:  f.EngineStats.GemmCalls,
			Flops:      f.EngineStats.Flops,
			Overflows:  f.EngineStats.Overflows,
			Underflows: f.EngineStats.Underflows,
		},
		Hazards: rc.noteHazards(f.Hazards),
	})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	rc, ok := s.admit(w, r, "solve")
	if !ok {
		return
	}
	var req solveRequest
	if rc.binReq {
		// The right-hand side is served as a zero-copy view into the pooled
		// frame buffer: no per-request copy of b on the cache-hit fast path.
		// The buffer is released after the response unless the solve was
		// abandoned on deadline (the detached batch still reads the view).
		body, aerr := readFrameBody(r)
		if aerr != nil {
			rc.fail(w, aerr)
			return
		}
		rc.bodyBuf = body
		defer rc.releaseBody()
		preq, aerr := decodeSolveFrame(body, nil)
		if aerr != nil {
			rc.fail(w, aerr)
			return
		}
		req = *preq
	} else if err := decodeJSON(r.Body, &req); err != nil {
		rc.fail(w, classifyError(err))
		return
	}
	opts, err := req.Options.options()
	if err != nil {
		rc.fail(w, classifyError(err))
		return
	}
	ctx, cancel := s.requestContext(r, req.DeadlineMS)
	defer cancel()

	var (
		entry *Entry
		src   Source
	)
	switch {
	case req.Key != "" && req.Matrix != nil:
		rc.fail(w, errBadInput("give key or matrix, not both"))
		return
	case req.Key != "":
		// A cached factorization keeps the config it was built with; a
		// config riding alongside a key would be silently ignored, so
		// reject it (mirroring the key+matrix conflict above).
		if req.Config != (WireConfig{}) {
			rc.fail(w, errBadInput("config cannot accompany key: the cached factorization's config applies (re-send the matrix to factorize under a different config)"))
			return
		}
		// Route before the local lookup: a non-owner without the entry
		// forwards to the owners; exhausted candidates fall through to the
		// local (404) answer as the served_local_fallback outcome.
		if s.maybeForwardSolve(w, rc, ctx, &req, nil, req.Key) {
			return
		}
		e, found := s.cache.Get(req.Key)
		if !found {
			rc.fail(w, &apiError{status: http.StatusNotFound, code: "unknown_key",
				msg: fmt.Sprintf("no cached factorization for key %q (it may have been evicted; re-send the matrix)", req.Key)})
			return
		}
		entry, src = e, SourceHit
	case req.Matrix != nil:
		a, aerr := s.resolveMatrix(req.Matrix)
		if aerr != nil {
			rc.fail(w, aerr)
			return
		}
		cfg, cerr := s.reqConfig(req.Config)
		if cerr != nil {
			rc.fail(w, classifyError(cerr))
			return
		}
		key := CacheKey(a, cfg)
		if s.maybeForwardSolve(w, rc, ctx, &req, a, key) {
			return
		}
		var ferr error
		entry, src, ferr = s.factorEntry(ctx, rc, key, a, cfg)
		if ferr != nil {
			rc.fail(w, classifyError(ferr))
			return
		}
		if src == SourceMiss {
			// A solve that factored locally re-homes the entry to its owners
			// (replica fan-out / hinted handoff), exactly like a factorize.
			s.clusterReplicate(key, a, req.Config)
		}
	default:
		rc.fail(w, errBadInput("missing key or matrix"))
		return
	}
	// The reference acquired above (Get or GetOrFactor) pins the entry —
	// and, under epoch-versioned updates, the exact epoch this request
	// resolved — for the whole solve, so concurrent updates and evictions
	// can never free or swap the factors mid-read.
	defer s.cache.Release(entry)
	rc.key = entry.Key
	rc.rows, rc.cols = entry.A.Rows, entry.A.Cols

	if len(req.B) != entry.A.Rows {
		rc.fail(w, errBadInput(fmt.Sprintf("b holds %d elements; the matrix has %d rows", len(req.B), entry.A.Rows)))
		return
	}
	if err := hazard.CheckVec("b", req.B); err != nil {
		rc.fail(w, classifyError(err))
		return
	}

	var out solveOutcome
	serr := s.retryDo(ctx, rc, "solve", func(actx context.Context) error {
		out = s.coal.Submit(actx, entry, opts, req.B)
		if errors.Is(out.err, ErrDeadline) {
			// The request abandoned its batch, but the batch still runs and
			// will read every waiter's b — including our zero-copy view into
			// the pooled frame buffer. Leak the buffer to the collector
			// rather than recycling memory a flusher is about to read. This
			// sticks even if a later retry attempt succeeds: the abandoned
			// batch from the timed-out attempt may still be in flight.
			rc.retainBody = true
		}
		return out.err
	})
	if serr != nil {
		rc.fail(w, classifyError(serr))
		return
	}
	rc.rep.RecordTiming("queue", out.queueWait)
	rc.rep.RecordTiming("solve", out.solveTime)
	rc.batched = out.batched
	rc.ok(w, solveResponse{
		X:          out.x,
		Iterations: out.iterations,
		Converged:  out.converged,
		Optimality: out.optimality,
		Key:        entry.Key,
		Cached:     src == SourceHit,
		Batched:    out.batched,
		Hazards:    rc.noteHazards(out.hazards),
	})
}

// handleUpdate is POST /v1/update: an incremental mutation of the cached
// factorization behind a key — append a row block or downdate trailing rows
// — published as the next epoch of the key's series. The update runs on the
// library's O(n²·(k+n)) update path, not a refactorization; in-flight
// solves keep the epoch they pinned and the old entry is freed only when
// its references drain.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	rc, ok := s.admit(w, r, "update")
	if !ok {
		return
	}
	var req updateRequest
	if rc.binReq {
		// The append block is copied out of the frame during decode (it
		// outlives the request inside the published entry), so the pooled
		// buffer can be released as soon as decoding ends.
		body, aerr := readFrameBody(r)
		if aerr != nil {
			rc.fail(w, aerr)
			return
		}
		preq, aerr := decodeUpdateFrame(body, nil)
		wirefmt.PutBuffer(body)
		if aerr != nil {
			rc.fail(w, aerr)
			return
		}
		req = *preq
	} else if err := decodeJSON(r.Body, &req); err != nil {
		rc.fail(w, classifyError(err))
		return
	}
	if req.Key == "" {
		rc.fail(w, errBadInput("missing key"))
		return
	}
	if (req.Append != nil) == (req.RemoveRows != 0) {
		rc.fail(w, errBadInput("give append or remove_rows, exactly one"))
		return
	}
	if req.RemoveRows < 0 {
		rc.fail(w, errBadInput("remove_rows must be positive"))
		return
	}
	rc.key = req.Key
	ctx, cancel := s.requestContext(r, req.DeadlineMS)
	defer cancel()
	// Updates must run where the series lives: route to the base key's
	// owners when this node does not hold it.
	if s.maybeForwardUpdate(w, rc, ctx, &req) {
		return
	}
	// Updates are cold compute: degraded mode sheds them like any other
	// factorization work.
	if de := s.degradedReject(); de != nil {
		rc.fail(w, de)
		return
	}
	var v64 *tcqr.Matrix
	if req.Append != nil {
		var aerr *apiError
		if v64, aerr = s.resolveMatrix(req.Append); aerr != nil {
			rc.fail(w, aerr)
			return
		}
	}
	old, berr := s.cache.BeginUpdate(req.Key)
	if berr != nil {
		rc.fail(w, &apiError{status: http.StatusNotFound, code: "unknown_key",
			msg: fmt.Sprintf("no cached factorization for key %q (it may have been evicted; re-send the matrix)", req.Key)})
		return
	}
	// Shape checks against the pinned epoch, before any compute.
	if v64 != nil {
		if v64.Cols != old.A.Cols {
			s.cache.AbortUpdate(old)
			rc.fail(w, errBadInput(fmt.Sprintf("append block has %d columns; the factorization has %d", v64.Cols, old.A.Cols)))
			return
		}
		if n := int64(old.A.Rows+v64.Rows) * int64(old.A.Cols); n > int64(s.opts.MaxElements) {
			s.cache.AbortUpdate(old)
			rc.fail(w, &apiError{status: http.StatusRequestEntityTooLarge, code: "too_large",
				msg: fmt.Sprintf("updated matrix would have %d elements; the server caps matrices at %d", n, s.opts.MaxElements)})
			return
		}
	}
	var (
		v  *tcqr.Matrix32
		nf *tcqr.Factorization
	)
	if v64 != nil {
		v = tcqr.ToFloat32(v64)
	}
	uerr := s.retryDo(ctx, rc, "update", func(actx context.Context) error {
		var ierr error
		wait, perr := s.pool.Do(actx, func() {
			t0 := time.Now()
			// Failpoint: an injected error here aborts the update after the
			// epoch was pinned — the recovery path that must leave the
			// current epoch published and the series unlocked.
			ierr = faultinject.Fire(siteUpdateApply)
			if ierr == nil {
				if v != nil {
					nf, ierr = s.updater.UpdateAppendRows(old.F, v, old.Config)
				} else {
					nf, ierr = s.updater.UpdateRemoveRows(old.F, req.RemoveRows, old.Config)
				}
			}
			rc.rep.RecordTiming("update", time.Since(t0))
		})
		if perr != nil {
			return perr
		}
		rc.rep.RecordTiming("queue", wait)
		return ierr
	})
	if uerr != nil {
		s.cache.AbortUpdate(old)
		s.metrics.updateFailed.Inc()
		rc.fail(w, classifyError(uerr))
		return
	}
	// Rebuild the refinement matrix for the new epoch (solves need A at
	// full precision) and publish atomically.
	var na *tcqr.Matrix
	if v64 != nil {
		na = appendRows64(old.A, v64)
		s.metrics.updateApplied.With("append").Inc()
	} else {
		na = dropRows64(old.A, req.RemoveRows)
		s.metrics.updateApplied.With("downdate").Inc()
	}
	s.metrics.updateRows.Add(int64(absInt(na.Rows - old.A.Rows)))
	ne := s.cache.PublishUpdate(old, na, nf)
	defer s.cache.Release(ne)
	rc.key = ne.Key
	rc.rows, rc.cols = na.Rows, na.Cols
	rc.ok(w, updateResponse{
		Key:     ne.Key,
		BaseKey: baseKey(ne.Key),
		Epoch:   ne.Epoch,
		Rows:    na.Rows,
		Cols:    na.Cols,
		Hazards: rc.noteHazards(nf.Hazards),
	})
}

// appendRows64 stacks v under a (both tight or strided column-major).
func appendRows64(a, v *tcqr.Matrix) *tcqr.Matrix {
	out := tcqr.NewMatrix(a.Rows+v.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		col := out.Col(j)
		copy(col, a.Data[j*a.Stride:j*a.Stride+a.Rows])
		copy(col[a.Rows:], v.Data[j*v.Stride:j*v.Stride+v.Rows])
	}
	return out
}

// dropRows64 copies a without its trailing k rows.
func dropRows64(a *tcqr.Matrix, k int) *tcqr.Matrix {
	out := tcqr.NewMatrix(a.Rows-k, a.Cols)
	for j := 0; j < a.Cols; j++ {
		copy(out.Col(j), a.Data[j*a.Stride:j*a.Stride+out.Rows])
	}
	return out
}

func absInt(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

func (s *Server) handleLowRank(w http.ResponseWriter, r *http.Request) {
	rc, ok := s.admit(w, r, "lowrank")
	if !ok {
		return
	}
	var req lowRankRequest
	if rc.binReq {
		body, aerr := readFrameBody(r)
		if aerr != nil {
			rc.fail(w, aerr)
			return
		}
		preq, aerr := decodeLowRankFrame(body, nil)
		wirefmt.PutBuffer(body)
		if aerr != nil {
			rc.fail(w, aerr)
			return
		}
		req = *preq
	} else if err := decodeJSON(r.Body, &req); err != nil {
		rc.fail(w, classifyError(err))
		return
	}
	a, aerr := s.resolveMatrix(req.Matrix)
	if aerr != nil {
		rc.fail(w, aerr)
		return
	}
	rc.rows, rc.cols = a.Rows, a.Cols
	cfg, err := s.reqConfig(req.Config)
	if err != nil {
		rc.fail(w, classifyError(err))
		return
	}
	ctx, cancel := s.requestContext(r, req.DeadlineMS)
	defer cancel()
	// Low-rank results are never cached, so degraded mode has nothing to
	// serve here: the whole pipeline is suspended until the cooldown ends.
	if de := s.degradedReject(); de != nil {
		rc.fail(w, de)
		return
	}
	var (
		res  *tcqr.LowRankApprox
		lerr error
	)
	err = s.retryDo(ctx, rc, "solve", func(actx context.Context) error {
		wait, perr := s.pool.Do(actx, func() {
			t0 := time.Now()
			res, lerr = s.backend.LowRank(tcqr.ToFloat32(a), req.Rank, cfg)
			rc.rep.RecordTiming("solve", time.Since(t0))
		})
		if perr != nil {
			return perr
		}
		rc.rep.RecordTiming("queue", wait)
		return lerr
	})
	if err != nil {
		rc.fail(w, classifyError(err))
		return
	}
	sing := make([]float64, len(res.S))
	for i, v := range res.S {
		sing[i] = float64(v)
	}
	rc.ok(w, lowRankResponse{
		U:       fromMatrix(res.U),
		S:       sing,
		V:       fromMatrix(res.V),
		Rank:    res.Rank,
		Hazards: rc.noteHazards(res.Hazards),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	// Degraded is still 200: the process is alive and serving cache hits, so
	// load balancers must not eject it — clients discover the restriction
	// through per-request 503s with Retry-After.
	if _, deg := s.brk.degraded(); deg {
		fmt.Fprintln(w, `{"status":"degraded"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// statzTiming is the aggregated view of one pipeline stage.
type statzTiming struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	AvgMS   float64 `json:"avg_ms"`
	MaxMS   float64 `json:"max_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
}

// statzResponse is the body of GET /statz.
type statzResponse struct {
	UptimeSeconds float64                `json:"uptime_seconds"`
	Draining      bool                   `json:"draining"`
	Degraded      bool                   `json:"degraded"`
	Requests      map[string]int64       `json:"requests"`
	Errors        map[string]int64       `json:"errors"`
	Cache         CacheStats             `json:"cache"`
	Coalescer     CoalescerStats         `json:"coalescer"`
	Pool          PoolStats              `json:"pool"`
	Timing        map[string]statzTiming `json:"timing"`
	Hazards       map[string]int64       `json:"hazards"`
}

// handleStatz renders the JSON stats view. Since the metrics registry became
// the single source of truth, this is a thin projection of registry
// snapshots — every map is a private copy, so encoding can never interleave
// with writers.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	_, degraded := s.brk.degraded()
	resp := statzResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		Degraded:      degraded,
		Requests:      s.metrics.requests.Snapshot(),
		Errors:        s.metrics.errors.Snapshot(),
		Hazards:       s.metrics.hazards.Snapshot(),
		Timing:        make(map[string]statzTiming),
	}
	for stage, h := range s.metrics.stageSeconds.Series() {
		n := h.Count()
		if n == 0 {
			continue
		}
		sum := h.Sum()
		resp.Timing[stage] = statzTiming{
			Count:   n,
			TotalMS: sum * 1e3,
			AvgMS:   sum / float64(n) * 1e3,
			MaxMS:   h.Max() * 1e3,
			P50MS:   h.Quantile(0.50) * 1e3,
			P95MS:   h.Quantile(0.95) * 1e3,
			P99MS:   h.Quantile(0.99) * 1e3,
		}
	}
	resp.Cache = s.cache.Stats()
	resp.Coalescer = s.coal.Stats()
	resp.Pool = s.pool.Stats()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// takeRepEvents drains the request report's hazard events (the transient
// failures the retry layer recorded) at most once per request, so the ok
// path (via noteHazards) and the fail path cannot double-count them.
func (rc *reqScope) takeRepEvents() []tcqr.Hazard {
	if rc.repCounted {
		return nil
	}
	rc.repCounted = true
	return rc.rep.Events()
}

// noteHazards serializes the request's report events (retried transient
// failures, in the order they happened) followed by the result's hazard
// list, folding all of them into the per-kind hazard and per-action
// recovery counters.
func (rc *reqScope) noteHazards(hs []tcqr.Hazard) []WireHazard {
	ws := wireHazards(append(rc.takeRepEvents(), hs...))
	for _, h := range ws {
		rc.s.metrics.noteHazard(h)
		rc.hazardKinds = append(rc.hazardKinds, normalizeHazardKind(h.Kind))
	}
	return ws
}

// ok encodes v (timed as the encode stage) in the negotiated encoding and
// finishes the response.
func (rc *reqScope) ok(w http.ResponseWriter, v any) {
	t0 := time.Now()
	// Failpoint: an injected encode failure takes the same 500 path as a
	// real serialization error. It is not retried — the compute already
	// succeeded, and replaying it for an encode fault would double-count
	// work — but it does feed the degradation breaker. Both encodings pass
	// through it.
	if err := faultinject.Fire(siteWireEncode); err != nil {
		rc.fail(w, classifyError(err))
		return
	}
	if rc.frameResp {
		rc.okFrame(w, v, t0)
		return
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		rc.fail(w, &apiError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()})
		return
	}
	rc.rep.RecordTiming("encode", time.Since(t0))
	rc.s.metrics.hotWireRespJSON.Inc()
	rc.s.brk.recordSuccess()
	rc.finish(w, http.StatusOK, buf.Bytes())
}

// okFrame writes v as a binary frame into a pooled buffer: JSON metadata
// section plus zero-parse float sections for the bulk payloads.
func (rc *reqScope) okFrame(w http.ResponseWriter, v any, t0 time.Time) {
	meta, bulk, err := frameSections(v)
	if err != nil {
		rc.fail(w, &apiError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()})
		return
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		rc.fail(w, &apiError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()})
		return
	}
	secs := append([]wirefmt.Section{wirefmt.JSONSection(metaJSON)}, bulk...)
	n, err := wirefmt.FrameLen(secs...)
	if err != nil {
		rc.fail(w, &apiError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()})
		return
	}
	buf := wirefmt.GetBuffer(n)
	out, err := wirefmt.AppendFrame(buf, secs...)
	if err != nil {
		wirefmt.PutBuffer(buf)
		rc.fail(w, &apiError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()})
		return
	}
	rc.rep.RecordTiming("encode", time.Since(t0))
	rc.s.metrics.hotWireRespBinary.Inc()
	rc.s.brk.recordSuccess()
	rc.respCT = wirefmt.ContentType
	rc.finish(w, http.StatusOK, out)
	wirefmt.PutBuffer(out)
}

// fail encodes the uniform error envelope for e and finishes the response.
// Internal (500-class) failures feed the degradation breaker; transient
// events the retry layer recorded on the way down ride in the envelope so a
// failed request still shows what was attempted.
func (rc *reqScope) fail(w http.ResponseWriter, e *apiError) {
	rc.errCode = e.code
	rc.s.metrics.errors.With(e.code).Inc()
	hz := e.hazards
	if reps := wireHazards(rc.takeRepEvents()); len(reps) > 0 {
		for _, h := range reps {
			rc.s.metrics.noteHazard(h)
			rc.hazardKinds = append(rc.hazardKinds, normalizeHazardKind(h.Kind))
		}
		hz = append(reps, e.hazards...)
	}
	if e.status == http.StatusInternalServerError && rc.s.brk.recordFailure() {
		if rc.s.log != nil {
			rc.s.log.Warn("entering degraded mode",
				slog.String("trigger_code", e.code),
				slog.Duration("cooldown", rc.s.opts.DegradeCooldown))
		}
	}
	body, _ := json.Marshal(errorBody{Error: errorDetail{Code: e.code, Message: e.msg, Hazards: hz}})
	if e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable {
		ra := "1"
		if e.retryAfter > 0 {
			ra = strconv.Itoa(e.retryAfter)
		}
		w.Header().Set("Retry-After", ra)
	}
	rc.finish(w, e.status, append(body, '\n'))
}

// finish folds the request's stage timings into the latency histograms,
// emits the Server-Timing header, writes the response, and logs the request.
func (rc *reqScope) finish(w http.ResponseWriter, status int, body []byte) {
	timings := rc.rep.Timings()
	rc.s.metrics.observeStages(timings)
	rc.s.metrics.responses.With(strconv.Itoa(status)).Inc()
	ct := rc.respCT
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	st := serverTimingHeader(timings)
	if st != "" {
		w.Header().Set("Server-Timing", st)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
	rc.logRequest(status, st)
}

// logRequest emits one structured record for the finished request: Info for
// successes, Warn for client errors, Error for server errors. Identifiers
// the handler never learned (key, shape) are omitted.
func (rc *reqScope) logRequest(status int, stages string) {
	lg := rc.s.log
	if lg == nil {
		return
	}
	level := slog.LevelInfo
	switch {
	case status >= 500:
		level = slog.LevelError
	case status >= 400:
		level = slog.LevelWarn
	}
	ctx := context.Background()
	if !lg.Enabled(ctx, level) {
		return
	}
	attrs := []slog.Attr{
		slog.String("endpoint", rc.endpoint),
		slog.String("method", rc.method),
		slog.Int("status", status),
		slog.Duration("duration", time.Since(rc.start)),
	}
	if rc.errCode != "" {
		attrs = append(attrs, slog.String("code", rc.errCode))
	}
	if rc.key != "" {
		attrs = append(attrs, slog.String("key", rc.key))
	}
	if rc.rows > 0 {
		attrs = append(attrs, slog.Int("rows", rc.rows), slog.Int("cols", rc.cols))
	}
	if rc.batched > 0 {
		attrs = append(attrs, slog.Int("batched", rc.batched))
	}
	if stages != "" {
		attrs = append(attrs, slog.String("stages", stages))
	}
	if len(rc.hazardKinds) > 0 {
		attrs = append(attrs, slog.String("hazards", strings.Join(rc.hazardKinds, ",")))
	}
	lg.LogAttrs(ctx, level, "request", attrs...)
}

// serverTimingHeader renders the stage breakdown in the standard
// Server-Timing format, one metric per stage (durations summed if a stage
// was recorded twice), in the canonical queue/factorize/solve/encode order.
func serverTimingHeader(timings []hazard.Timing) string {
	if len(timings) == 0 {
		return ""
	}
	sums := make(map[string]time.Duration)
	var order []string
	for _, t := range timings {
		if _, seen := sums[t.Stage]; !seen {
			order = append(order, t.Stage)
		}
		sums[t.Stage] += t.D
	}
	sort.SliceStable(order, func(i, j int) bool { return stageRank(order[i]) < stageRank(order[j]) })
	var sb strings.Builder
	for i, stage := range order {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s;dur=%.3f", stage, float64(sums[stage].Nanoseconds())/1e6)
	}
	return sb.String()
}

func stageRank(stage string) int {
	switch stage {
	case "queue":
		return 0
	case "factorize":
		return 1
	case "solve":
		return 2
	case "encode":
		return 3
	}
	return 4
}
