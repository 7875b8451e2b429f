package serve

import (
	"errors"
	"fmt"
	"net/http"

	"tcqr"
	"tcqr/internal/hazard"
	"tcqr/internal/tcsim"
)

// This file is the wire vocabulary of the daemon: request/response bodies
// for every endpoint, the serialized form of the typed hazard events (so
// clients see what the PR 2 fallback ladder did), and the error envelope with
// its HTTP status mapping. A body type is also the only statement of its own
// binary frame layout: a type with bulk float payloads says so in its frame
// method, and codec.go's one decoder and one encoder read that statement for
// client requests, responses and peer forwards alike. A type without a frame
// method is pure metadata — its frame is the single JSON section.

// WireMatrix carries a dense matrix over JSON in the library's column-major
// convention: Data[i + j*Rows] is element (i, j).
type WireMatrix struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// matrix validates the wire form and wraps it as a library matrix (no
// copy beyond the decoded slice).
func (w *WireMatrix) matrix() (*tcqr.Matrix, error) {
	if w == nil {
		return nil, errBadInput("missing matrix")
	}
	if w.Rows <= 0 || w.Cols <= 0 {
		return nil, errBadInput(fmt.Sprintf("matrix is %dx%d; need at least 1x1", w.Rows, w.Cols))
	}
	// Shape check via division, not multiplication: rows*cols can wrap for
	// huge dimensions (rows=cols=2^32 multiplies to 0, matching empty data)
	// and a bogus matrix would panic deep in the compute pipeline. After
	// this check rows*cols == len(Data) holds as an exact, non-overflowing
	// int.
	if len(w.Data)%w.Cols != 0 || len(w.Data)/w.Cols != w.Rows {
		return nil, errBadInput(fmt.Sprintf("matrix data holds %d elements; a %dx%d matrix needs exactly rows*cols",
			len(w.Data), w.Rows, w.Cols))
	}
	return tcqr.FromColMajor(w.Rows, w.Cols, w.Data), nil
}

// fromMatrix converts a library matrix to its wire form (tight copy).
func fromMatrix(m *tcqr.Matrix32) *WireMatrix {
	out := &WireMatrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, 0, m.Rows*m.Cols)}
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			out.Data = append(out.Data, float64(v))
		}
	}
	return out
}

// WireConfig is the JSON form of tcqr.Config. Zero values are the library
// defaults (fp16 engine, CAQR panel, cutoff 128, scaling on, fail policy).
type WireConfig struct {
	// Engine selects the simulated device: "fp16" (default), "tc-ec"
	// (error-corrected fp16 TensorCore, fp32-grade accuracy at 3× the GEMM
	// count), "bf16", "fp32".
	Engine string `json:"engine,omitempty"`
	// Panel selects the panel algorithm: "caqr" (default), "householder",
	// "mgs".
	Panel string `json:"panel,omitempty"`
	// Cutoff is the recursion cutoff width (0 = library default 128).
	Cutoff int `json:"cutoff,omitempty"`
	// Reorthogonalize runs the "twice is enough" second pass.
	Reorthogonalize bool `json:"reorthogonalize,omitempty"`
	// DisableColumnScaling turns off the §3.5 overflow safeguard.
	DisableColumnScaling bool `json:"disable_column_scaling,omitempty"`
	// OnHazard selects the hazard policy: "fail" (default) or "fallback".
	OnHazard string `json:"on_hazard,omitempty"`
}

// config translates the wire form, rejecting unknown enum strings.
func (w WireConfig) config() (tcqr.Config, error) {
	var cfg tcqr.Config
	var err error
	if cfg.Engine, err = tcsim.ParseKind(w.Engine); err != nil {
		return cfg, errBadInput(err.Error())
	}
	if cfg.Panel, err = tcqr.ParsePanel(w.Panel); err != nil {
		return cfg, errBadInput(err.Error())
	}
	if w.Cutoff < 0 {
		return cfg, errBadInput(fmt.Sprintf("cutoff %d < 0", w.Cutoff))
	}
	cfg.Cutoff = w.Cutoff
	cfg.ReOrthogonalize = w.Reorthogonalize
	cfg.DisableColumnScaling = w.DisableColumnScaling
	pol, err := wirePolicy(w.OnHazard)
	if err != nil {
		return cfg, err
	}
	cfg.OnHazard = pol
	return cfg, nil
}

// WireSolveOptions is the JSON form of tcqr.SolveOptions (the refinement
// side; the factorization side rides in the request's config).
type WireSolveOptions struct {
	// Method selects the refinement engine: "cgls" (default) or "lsqr".
	// Any other name is 400 bad_input, never answered by another method
	// under the name the client asked for; "none", the unrefined R⁻¹Qᵀb,
	// is one of them, because a cached factor holds no Q.
	Method string `json:"method,omitempty"`
	// Tol is the relative convergence tolerance (0 = library default).
	Tol float64 `json:"tol,omitempty"`
	// MaxIterations caps refinement (0 = library default).
	MaxIterations int `json:"max_iterations,omitempty"`
	// OnHazard is accepted for older clients and selects nothing: it must be
	// "", "fail" or "fallback" (anything else is 400 bad_input), and the
	// refinement never re-solves under either. The hazard policy is
	// config.on_hazard, which governs the factorization.
	OnHazard string `json:"on_hazard,omitempty"`
}

func (w WireSolveOptions) options() (tcqr.SolveOptions, error) {
	var opts tcqr.SolveOptions
	switch w.Method {
	case "", "cgls":
		opts.Method = tcqr.RefineCGLS
	case "lsqr":
		opts.Method = tcqr.RefineLSQR
	default:
		return opts, errBadInput(fmt.Sprintf("unknown method %q (want cgls or lsqr)", w.Method))
	}
	if w.Tol < 0 || w.MaxIterations < 0 {
		return opts, errBadInput("tol and max_iterations must be >= 0")
	}
	opts.Tol = w.Tol
	opts.MaxIterations = w.MaxIterations
	if _, err := wirePolicy(w.OnHazard); err != nil {
		return opts, err
	}
	return opts, nil
}

func wirePolicy(s string) (tcqr.HazardPolicy, error) {
	switch s {
	case "", "fail":
		return tcqr.HazardFail, nil
	case "fallback":
		return tcqr.HazardFallback, nil
	}
	return tcqr.HazardFail, errBadInput(fmt.Sprintf("unknown on_hazard %q (want fail or fallback)", s))
}

// WireHazard is the serialized form of one typed hazard event.
type WireHazard struct {
	Kind   string `json:"kind"`
	Stage  string `json:"stage"`
	Detail string `json:"detail"`
	Action string `json:"action,omitempty"`
}

// wireHazards serializes a hazard list; nil in, nil out (omitted in JSON).
func wireHazards(hs []tcqr.Hazard) []WireHazard {
	if len(hs) == 0 {
		return nil
	}
	out := make([]WireHazard, len(hs))
	for i, h := range hs {
		out[i] = WireHazard{Kind: h.Kind.String(), Stage: h.Stage, Detail: h.Detail, Action: h.Action}
	}
	return out
}

// wireEngineStats is the serialized EngineStats.
type wireEngineStats struct {
	GemmCalls  int64 `json:"gemm_calls"`
	Flops      int64 `json:"flops"`
	Overflows  int64 `json:"overflows"`
	Underflows int64 `json:"underflows"`
}

// factorizeRequest is the body of POST /v1/factorize.
type factorizeRequest struct {
	Matrix *WireMatrix `json:"matrix"`
	Config WireConfig  `json:"config"`
	// DeadlineMS optionally tightens the server's default deadline for this
	// request (milliseconds).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

func (r *factorizeRequest) frame() frameLayout {
	return layout(r, &r.DeadlineMS, bulkField{name: "matrix", mat: &r.Matrix})
}

// factorizeResponse reports the cached factorization. Key addresses it in
// subsequent /v1/solve requests without re-uploading the matrix.
type factorizeResponse struct {
	Key              string          `json:"key"`
	Rows             int             `json:"rows"`
	Cols             int             `json:"cols"`
	Cached           bool            `json:"cached"`
	Shared           bool            `json:"shared"`
	Reorthogonalized bool            `json:"reorthogonalized"`
	EngineStats      wireEngineStats `json:"engine_stats"`
	Hazards          []WireHazard    `json:"hazards,omitempty"`
}

// solveRequest is the body of POST /v1/solve: either Key (a prior
// factorize response) or Matrix+Config must be given, plus the right-hand
// side B.
type solveRequest struct {
	Key        string           `json:"key,omitempty"`
	Matrix     *WireMatrix      `json:"matrix,omitempty"`
	Config     WireConfig       `json:"config"`
	B          []float64        `json:"b"`
	Options    WireSolveOptions `json:"options"`
	DeadlineMS int64            `json:"deadline_ms,omitempty"`
}

func (r *solveRequest) frame() frameLayout {
	return layout(r, &r.DeadlineMS,
		bulkField{name: "matrix", mat: &r.Matrix, optional: true}, bulkField{name: "b", vec: &r.B})
}

// solveResponse is one least squares solution: x, then the metadata (which
// is the whole JSON section of a binary response — x rides as a vector
// section).
type solveResponse struct {
	X []float64 `json:"x"`
	solveMeta
}

// solveMeta is solveResponse without its bulk payload.
type solveMeta struct {
	Iterations int          `json:"iterations"`
	Converged  bool         `json:"converged"`
	Optimality float64      `json:"optimality"`
	Key        string       `json:"key"`
	Cached     bool         `json:"cached"`
	Hazards    []WireHazard `json:"hazards,omitempty"`
}

func (r *solveResponse) frame() frameLayout {
	return layout(&r.solveMeta, nil, bulkField{name: "x", vec: &r.X})
}

// updateRequest is the body of POST /v1/update: an incremental mutation of
// the cached factorization behind key — append a row block, or remove the
// trailing remove_rows rows (exactly one of the two). The key may be a bare
// base key (the update applies to the newest epoch) or an explicit
// key@epoch, which must still be current: updates always chain off the
// series head.
type updateRequest struct {
	Key        string      `json:"key"`
	Append     *WireMatrix `json:"append,omitempty"`
	RemoveRows int         `json:"remove_rows,omitempty"`
	DeadlineMS int64       `json:"deadline_ms,omitempty"`
}

func (r *updateRequest) frame() frameLayout {
	return layout(r, &r.DeadlineMS, bulkField{name: "append", mat: &r.Append, optional: true})
}

// updateResponse reports the newly published epoch. Subsequent solves by
// the bare base key resolve it automatically; the versioned key names it.
type updateResponse struct {
	Key     string       `json:"key"`
	BaseKey string       `json:"base_key"`
	Epoch   uint64       `json:"epoch"`
	Rows    int          `json:"rows"`
	Cols    int          `json:"cols"`
	Hazards []WireHazard `json:"hazards,omitempty"`
}

// lowRankRequest is the body of POST /v1/lowrank.
type lowRankRequest struct {
	Matrix     *WireMatrix `json:"matrix"`
	Rank       int         `json:"rank"`
	Config     WireConfig  `json:"config"`
	DeadlineMS int64       `json:"deadline_ms,omitempty"`
}

func (r *lowRankRequest) frame() frameLayout {
	return layout(r, &r.DeadlineMS, bulkField{name: "matrix", mat: &r.Matrix})
}

// lowRankResponse carries the truncated SVD factors, then the metadata (the
// JSON section of a binary response; U, s and V ride as sections, in that
// order).
type lowRankResponse struct {
	U *WireMatrix `json:"u"`
	S []float64   `json:"s"`
	V *WireMatrix `json:"v"`
	lowRankMeta
}

// lowRankMeta is lowRankResponse without its bulk payloads.
type lowRankMeta struct {
	Rank    int          `json:"rank"`
	Hazards []WireHazard `json:"hazards,omitempty"`
}

func (r *lowRankResponse) frame() frameLayout {
	return layout(&r.lowRankMeta, nil,
		bulkField{name: "u", mat: &r.U}, bulkField{name: "s", vec: &r.S}, bulkField{name: "v", mat: &r.V})
}

// errorBody is the uniform error envelope: every non-2xx response carries
// exactly this shape.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	// Code is a stable machine-readable class: bad_input, unknown_key,
	// numerical_hazard, overloaded, draining, deadline, too_large,
	// method_not_allowed, not_found, internal.
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError is an error with a wire code and HTTP status. The handlers build
// every failure out of these so the envelope and status mapping stay in one
// place.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errBadInput(msg string) *apiError {
	return &apiError{status: http.StatusBadRequest, code: "bad_input", msg: msg}
}

func errUnknownKey(key string) *apiError {
	return &apiError{status: http.StatusNotFound, code: "unknown_key",
		msg: fmt.Sprintf("no cached factorization for key %q (it may have been evicted; re-send the matrix)", key)}
}

// classifyError maps any error escaping the compute pipeline to an
// apiError: library input-validation errors become bad_input (the client
// sent unusable data), numerical hazards under the fail policy become
// numerical_hazard (the data was well-formed but the computation refused to
// return garbage), admission errors keep their backpressure status.
func classifyError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		return &apiError{status: http.StatusTooManyRequests, code: "overloaded", msg: err.Error()}
	case errors.Is(err, ErrDraining):
		return &apiError{status: http.StatusServiceUnavailable, code: "draining", msg: err.Error()}
	case errors.Is(err, ErrDeadline):
		return &apiError{status: http.StatusGatewayTimeout, code: "deadline", msg: err.Error()}
	case errors.Is(err, tcqr.ErrNonFinite) && !errors.Is(err, tcqr.ErrOverflow),
		errors.Is(err, tcqr.ErrEmpty),
		errors.Is(err, tcqr.ErrShape):
		return &apiError{status: http.StatusBadRequest, code: "bad_input", msg: err.Error()}
	case errors.Is(err, tcqr.ErrOverflow),
		errors.Is(err, tcqr.ErrBreakdown):
		return &apiError{status: http.StatusUnprocessableEntity, code: "numerical_hazard", msg: err.Error()}
	}
	return &apiError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()}
}

// compile-time check: the public Hazard alias and the internal event type
// stay identical (the wire layer serializes the internal vocabulary
// directly).
var _ []tcqr.Hazard = []hazard.Event(nil)
