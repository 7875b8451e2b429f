package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcqr"
	"tcqr/internal/cluster"
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
	// DefaultDeadline bounds each request when the client sends no
	// deadline_ms (0 = 30s).
	DefaultDeadline time.Duration
	// MaxBodyBytes caps request bodies (0 = 64 MiB + 64 KiB: a frame
	// carrying the largest matrix the default MaxElements admits).
	MaxBodyBytes int64
	// MaxElements caps rows*cols of an uploaded matrix (0 = 8Mi elements).
	MaxElements int
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

// Server is the serving core: cache + pool behind an
// http.Handler. Create with New, mount Handler, call BeginDrain / AwaitIdle
// around shutdown, and Close when retiring the server (it detaches the
// process-global engine-GEMM observer).
type Server struct {
	opts     Options
	backend  Backend
	cache    *FactorCache
	spill    *SpillTier
	pool     *Pool
	cluster  *cluster.Node
	start    time.Time
	draining atomic.Bool
	metrics  *serverMetrics
	log      *slog.Logger

	closeOnce sync.Once
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
	if opts.DefaultDeadline <= 0 {
		opts.DefaultDeadline = 30 * time.Second
	}
	if opts.MaxBodyBytes <= 0 {
		// 64 MiB is 8 Mi float64 elements; the 64 KiB on top holds a frame's
		// section headers and JSON metadata, so the element cap, not the
		// body cap, is what refuses a matrix.
		opts.MaxBodyBytes = 64<<20 + 64<<10
	}
	if opts.MaxElements <= 0 {
		opts.MaxElements = 8 << 20
	}
	if opts.Backend == nil {
		opts.Backend = LibraryBackend{}
	}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	s := &Server{
		opts:    opts,
		backend: opts.Backend,
		pool:    NewPool(opts.Workers, opts.QueueDepth),
		cluster: opts.Cluster,
		start:   time.Now(),
		log:     opts.Logger,
	}
	s.cache = NewFactorCache(opts.CacheEntries, s.backend)
	s.cache.SetByteBudget(opts.CacheMaxBytes)
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
			// stampeding cold factorizes. A log the cache declines would be
			// declined at every restart.
			for _, e := range sp.Rewarm() {
				if !s.cache.AdoptRewarmed(e) {
					sp.Remove(e)
				}
			}
		}
	}
	s.metrics = newServerMetrics(opts.Registry, s)
	return s
}

// Cache exposes the factorization cache (benchmarks reset it to measure the
// cold path).
func (s *Server) Cache() *FactorCache { return s.cache }

// Metrics exposes the server's metrics registry (the same one /metrics
// renders).
func (s *Server) Metrics() *metrics.Registry { return s.metrics.reg }

// Close detaches the server's engine-GEMM observer and closes the spill
// tier. Call when retiring a Server whose process keeps running (tests,
// embedders); idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.spill != nil {
			s.spill.Close()
		}
	})
	s.metrics.close()
}

// BeginDrain flips the server to draining: /healthz turns 503, new compute
// requests are rejected (admitted ones complete: each is a pool task, queued
// or running, which AwaitIdle waits out). On a cluster node the drain is
// cluster-aware: peers probing the 503 healthz mark this node down and stop
// forwarding to it, and the node's queued handoff hints get an immediate
// flush attempt (see also cluster.Node.DrainHandoff for a blocking flush at
// shutdown). Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	if s.cluster != nil {
		s.cluster.BeginLeave()
	}
}

// AwaitIdle blocks until the worker pool has no queued or running work, or
// ctx expires. Call after the HTTP server has stopped accepting requests.
func (s *Server) AwaitIdle(ctx context.Context) error { return s.pool.AwaitIdle(ctx) }

// Handler returns the HTTP API: POST /v1/factorize, /v1/solve, /v1/update,
// /v1/lowrank; GET /healthz, /statz, /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/factorize", s.endpoint("factorize", s.serveFactorize))
	mux.HandleFunc("/v1/solve", s.endpoint("solve", s.serveSolve))
	mux.HandleFunc("/v1/update", s.endpoint("update", s.serveUpdate))
	mux.HandleFunc("/v1/lowrank", s.endpoint("lowrank", s.serveLowRank))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.Handle("/metrics", s.metrics.reg)
	return mux
}

// endpoint mounts one compute endpoint on the request pipeline every one of
// them shares: admit here; then, inside serve, decodeRequest, the endpoint's
// own validation, forward (keyed endpoints on a cluster node), the compute
// and ok. serve returns nil once it has written the response, or the error
// — from whichever stage — that fail turns into the response.
func (s *Server) endpoint(name string, serve func(*reqScope, http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	hot := s.metrics.endpointCounters(name)
	return func(w http.ResponseWriter, r *http.Request) {
		rc, err := s.admit(w, r, name, hot)
		if err == nil {
			err = serve(rc, w, r)
		}
		if err != nil {
			rc.fail(w, classifyError(err))
		}
	}
}

// reqScope carries one request's instrumentation through the pipeline: the
// stage clock, the identifiers the structured log line wants (filled in as
// the handler learns them), and the terminal-status bookkeeping shared by ok
// and fail.
type reqScope struct {
	s        *Server
	endpoint string
	method   string
	stages   stageClock
	start    time.Time

	// ctx is the client's context (done when the client goes away) and
	// deadline the request's compute deadline (startDeadline; zero until an
	// endpoint sets it). A pool wait ends at whichever comes first; a
	// context carrying both is built only for a peer forward.
	ctx      context.Context
	deadline time.Time

	// binReq/frameResp record the negotiated encodings (see codec.go);
	// bodyBuf is the pooled frame buffer a decoded request still views,
	// recycled by finish (a solve abandoned on deadline drops it instead: a
	// worker may still read the zero-copy right-hand side).
	binReq    bool
	frameResp bool
	bodyBuf   *[]byte
	respCT    string // response Content-Type; empty selects application/json
	// timing backs the Server-Timing header value, so setting it allocates
	// only the rendered string.
	timing [1]string
	// rd is the reader decodeJSON hands encoding/json, kept here so that a
	// decode does not allocate one.
	rd bytes.Reader

	// forwarded marks a request that arrived with the cluster loop-guard
	// header: a peer routed it here, so it is served locally, never
	// re-forwarded.
	forwarded bool

	key         string
	rows, cols  int
	errCode     string
	hazardKinds []string
}

// admit is the common front door of the compute endpoints: method check,
// drain check, encoding negotiation, request accounting, body cap.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string, hot hotCounters) (*reqScope, error) {
	rc := &reqScope{
		s:        s,
		endpoint: endpoint,
		method:   r.Method,
		start:    time.Now(),
		ctx:      r.Context(),
	}
	rc.binReq = isFrameRequest(r)
	rc.frameResp = wantsFrameResponse(r, rc.binReq)
	rc.forwarded = r.Header.Get(cluster.ForwardHeader) != ""
	hot.requests.Inc()
	if rc.binReq {
		hot.wireBinary.Inc()
	} else {
		hot.wireJSON.Inc()
	}
	if r.Method != http.MethodPost {
		return rc, &apiError{status: http.StatusMethodNotAllowed, code: "method_not_allowed",
			msg: fmt.Sprintf("%s requires POST", r.URL.Path)}
	}
	if s.draining.Load() {
		return rc, ErrDraining
	}
	// A declared length over the cap is refused on the declaration: readBody
	// sizes its buffer from it, and the reader below only caps what is read.
	if r.ContentLength > s.opts.MaxBodyBytes {
		return rc, &apiError{status: http.StatusRequestEntityTooLarge, code: "too_large",
			msg: fmt.Sprintf("request body of %d bytes exceeds the server's %d-byte cap", r.ContentLength, s.opts.MaxBodyBytes)}
	}
	// A body of declared length needs no reader cap on top: the check above
	// held the declaration to the cap, and readBody reads exactly that many
	// bytes. A body of unknown length is read to its end, so it keeps the
	// cap.
	if r.ContentLength < 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	return rc, nil
}

// noteHazards serializes the result's hazard list, folding every event into
// the per-kind hazard and per-action recovery counters.
func (rc *reqScope) noteHazards(hs []tcqr.Hazard) []WireHazard {
	ws := wireHazards(hs)
	for _, h := range ws {
		rc.s.metrics.noteHazard(h)
		rc.hazardKinds = append(rc.hazardKinds, normalizeHazardKind(h.Kind))
	}
	return ws
}

// fail encodes the uniform error envelope for e and finishes the response.
// A failure leaves no state behind: the next request is served as if it
// never happened.
func (rc *reqScope) fail(w http.ResponseWriter, e *apiError) {
	rc.errCode = e.code
	rc.s.metrics.errors.With(e.code).Inc()
	body, _ := json.Marshal(errorBody{Error: errorDetail{Code: e.code, Message: e.msg}})
	if e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	rc.finish(w, e.status, append(body, '\n'))
}

// The two Content-Type values of the daemon's own responses. finish assigns
// them to the header map as they are: the map's values are only ever read or
// replaced (a Clone copies them), so every response can share them.
var (
	jsonContentType  = []string{"application/json"}
	frameContentType = []string{wirefmt.ContentType}
)

// statusLabels holds the responses counter's label of every three-digit
// status, so counting a response allocates nothing.
var statusLabels = func() (l [600]string) {
	for code := 100; code < len(l); code++ {
		l[code] = strconv.Itoa(code)
	}
	return l
}()

func statusLabel(code int) string {
	if code >= 100 && code < len(statusLabels) {
		return statusLabels[code]
	}
	return strconv.Itoa(code)
}

// finish folds the request's stage clock into the latency histograms, emits
// the Server-Timing header, writes the response, logs the request, and —
// nothing reads the request after this — recycles its frame buffer.
func (rc *reqScope) finish(w http.ResponseWriter, status int, body []byte) {
	rc.stages.observe(rc.s.metrics.stageSeconds)
	rc.s.metrics.responses.With(statusLabel(status)).Inc()
	h := w.Header()
	switch rc.respCT {
	case "", jsonContentType[0]:
		h["Content-Type"] = jsonContentType
	case frameContentType[0]:
		h["Content-Type"] = frameContentType
	default:
		h.Set("Content-Type", rc.respCT)
	}
	st := rc.stages.header()
	if st != "" {
		rc.timing[0] = st
		h["Server-Timing"] = rc.timing[:]
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
	rc.logRequest(status, st)
	wirefmt.PutBuffer(rc.bodyBuf)
	rc.bodyBuf = nil
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
	if stages != "" {
		attrs = append(attrs, slog.String("stages", stages))
	}
	if len(rc.hazardKinds) > 0 {
		attrs = append(attrs, slog.String("hazards", strings.Join(rc.hazardKinds, ",")))
	}
	lg.LogAttrs(ctx, level, "request", attrs...)
}
