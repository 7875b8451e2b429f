package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"time"

	"tcqr/internal/faultinject"
	"tcqr/internal/wirefmt"
)

// This file is the daemon's codec layer: content negotiation between the
// JSON contract and the binary frame codec (internal/wirefmt), the one
// decoder every endpoint's request passes through, the one frame encoder
// behind responses and peer forwards, and the pooled-buffer lifecycle that
// lets a cache-hit solve run without per-request heap growth. What a given
// body looks like as a frame is not decided here: each type in wire.go states
// its own layout (frameLayout) and both directions read that statement.
//
// Negotiation rules (DESIGN.md §12): a request IS binary when its
// Content-Type is application/x-tcqr-frame; a response IS binary when the
// Accept header names that type explicitly, or is absent on a binary
// request. Accept wildcards keep selecting JSON — existing clients that send
// Accept: */* must keep receiving the byte-for-byte JSON contract. Error
// responses are always the JSON envelope regardless of encoding: an error
// body is tiny, and a client that cannot parse the frame it asked about
// must still be able to read why.

// Wire encoding labels for the tcqrd_wire_* metric families.
const (
	encJSON   = "json"
	encBinary = "binary"
)

// isFrameRequest reports whether the request body is a binary frame.
func isFrameRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false
	}
	// The bare type, which is what frame clients send, needs no parse (a
	// parse allocates its parameter map).
	if strings.EqualFold(ct, wirefmt.ContentType) {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return strings.EqualFold(strings.TrimSpace(ct), wirefmt.ContentType)
	}
	return strings.EqualFold(mt, wirefmt.ContentType)
}

// wantsFrameResponse reports whether the success response should be a binary
// frame: an explicit Accept for the frame type, or a binary request with no
// Accept preference at all.
func wantsFrameResponse(r *http.Request, frameReq bool) bool {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return frameReq
	}
	for _, part := range strings.Split(accept, ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err == nil && strings.EqualFold(mt, wirefmt.ContentType) {
			return true
		}
	}
	return false
}

// bulkField is one bulk payload of a request or response body: the member
// that rides as a float section in a frame and as an ordinary JSON member
// otherwise. Exactly one of mat and vec is set.
type bulkField struct {
	name string // JSON member name
	// mat is a matrix section. Matrices outlive the request (factorization
	// cache, published epoch) and a pooled frame buffer must
	// not, so decoding copies the section out of one — and lets the matrix
	// keep a buffer the pool will never see again (decodeFrame's adopt rule).
	mat **WireMatrix
	// vec is a vector section. Decoding binds it as a zero-copy view of the
	// frame, so the frame buffer must live as long as the request does.
	vec      *[]float64
	optional bool // the frame may omit the section
}

// frameLayout is a body type's statement of its binary frame: the value
// carried by the leading JSON metadata section, then the bulk sections in
// order. For a request the metadata is the request itself (a frame is
// rejected when its metadata also fills a bulk member); a response with bulk
// payloads embeds a metadata struct so no bulk key ever appears in the JSON
// section.
type frameLayout struct {
	meta any
	// bulk[:nbulk] are the bulk sections. A fixed array, not a slice: the
	// layout is stated per request and per response, and a slice literal
	// would be a heap allocation each time.
	bulk  [maxBulk]bulkField
	nbulk int
	// deadline is the request's deadline_ms, which a peer forward sets to
	// what is left of the request's deadline (nil: the endpoint is never
	// forwarded).
	deadline *int64
}

// maxBulk is the most bulk sections a body type has (lowRankResponse: u, s,
// v).
const maxBulk = 3

// layout states a frame: meta, then the bulk sections in order.
func layout(meta any, deadline *int64, bulk ...bulkField) frameLayout {
	l := frameLayout{meta: meta, deadline: deadline, nbulk: len(bulk)}
	if copy(l.bulk[:], bulk) < len(bulk) {
		panic("serve: a frame layout states more than maxBulk bulk sections")
	}
	return l
}

// fields returns the layout's bulk sections in order.
func (l *frameLayout) fields() []bulkField { return l.bulk[:l.nbulk] }

// framed is implemented by the body types that carry bulk payloads.
type framed interface{ frame() frameLayout }

func layoutOf(v any) frameLayout {
	if f, ok := v.(framed); ok {
		return f.frame()
	}
	return frameLayout{meta: v}
}

// String renders the layout the way error messages and DESIGN.md §12 spell
// it: [JSON meta, matrix?, b].
func (l frameLayout) String() string {
	var sb strings.Builder
	sb.WriteString("[JSON meta")
	for _, f := range l.fields() {
		sb.WriteString(", " + f.name)
		if f.optional {
			sb.WriteByte('?')
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

func (f bulkField) tag() wirefmt.Tag {
	if f.mat != nil {
		return wirefmt.TagMatrix
	}
	return wirefmt.TagVector
}

func (f bulkField) get() (*WireMatrix, []float64) {
	if f.mat != nil {
		return *f.mat, nil
	}
	return nil, *f.vec
}

func (f bulkField) set(m *WireMatrix, vec []float64) {
	if f.mat != nil {
		*f.mat = m
	} else {
		*f.vec = vec
	}
}

// decodeJSON decodes a JSON document strictly: unknown fields and trailing
// data are errors, and the reader is size-capped by the caller.
func decodeJSON(r io.Reader, v any) *apiError {
	// Failpoint: an injected decode error surfaces as 400 bad_input,
	// indistinguishable from a real malformed body.
	if err := faultinject.Fire(siteWireDecode); err != nil {
		return errBadInput("malformed JSON body: " + err.Error())
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadInput("malformed JSON body: " + err.Error())
	}
	if dec.More() {
		return errBadInput("trailing data after JSON body")
	}
	return nil
}

// decodeRequest is the decode stage of every endpoint: it fills v from the
// request body in whichever encoding admit negotiated. A frame body is read
// into a pooled buffer; when v ends up viewing it (a vector section) the
// buffer is parked on rc until the response is written, otherwise it is
// recycled here — a no-op for a buffer too large to pool, which is what lets
// a matrix section keep one (decodeFrame).
func (rc *reqScope) decodeRequest(r *http.Request, v any) *apiError {
	t0 := time.Now()
	defer func() { rc.stages.add(stageDecode, time.Since(t0)) }()
	if !rc.binReq {
		return decodeJSON(r.Body, v)
	}
	body, err := readBody(r)
	if err != nil {
		wirefmt.PutBuffer(body)
		return errBadInput("reading frame body: " + err.Error())
	}
	aliased, aerr := decodeFrame(rc.endpoint, *body, v)
	if aerr == nil && aliased {
		rc.bodyBuf = body
	} else {
		wirefmt.PutBuffer(body)
	}
	return aerr
}

// readBody reads the whole request body into a wirefmt buffer. A declared
// length (admit has held it to MaxBodyBytes) is read into a buffer of exactly
// that size: a reader that grows as it goes must see spare room to learn it
// has reached the end, and the body's last Read rarely carries EOF with it,
// so a buffer sized to the body used to be reallocated at twice the size and
// copied at the very end. A body of unknown length starts at the pool's
// default and grows.
func readBody(r *http.Request) (*[]byte, error) {
	if n := r.ContentLength; n >= 0 {
		buf := wirefmt.GetBuffer(int(n))
		*buf = (*buf)[:n]
		_, err := io.ReadFull(r.Body, *buf)
		return buf, err
	}
	buf := wirefmt.GetBuffer(16 << 10)
	grown := bytes.NewBuffer(*buf)
	_, err := grown.ReadFrom(r.Body)
	*buf = grown.Bytes()
	return buf, err
}

// decodeFrame maps a frame — [JSON meta, bulk sections…] — onto v, following
// v's own layout. The metadata is decoded under the same strict contract, and
// through the same failpoint, as a JSON body. It reports whether v now views
// body (see bulkField.vec): the caller must then keep body alive until
// nothing can read v.
//
// The adopt rule: a matrix section views body instead of copying out of it
// when body is too large for wirefmt's pool — nothing will ever recycle it,
// it is garbage once the request ends anyway — and the section is more than
// half of it, so what the matrix pins beyond its own bytes (the rest of the
// frame: headers, metadata, b) is less than the matrix again, and for the
// frames this is for (one big matrix and a vector) under one percent.
// Anything smaller keeps the copy and the pool.
func decodeFrame(endpoint string, body []byte, v any) (aliased bool, _ *apiError) {
	var scratch [wirefmt.MaxSections]wirefmt.Section
	secs, err := wirefmt.Decode(body, scratch[:0])
	if err != nil {
		return false, errBadInput(err.Error())
	}
	if len(secs) == 0 || secs[0].Tag != wirefmt.TagJSON {
		return false, errBadInput("frame must start with a JSON metadata section")
	}
	l := layoutOf(v)
	metaBytes := secs[0].Raw
	if len(metaBytes) == 0 {
		metaBytes = []byte("{}")
	}
	if aerr := decodeJSON(bytes.NewReader(metaBytes), l.meta); aerr != nil {
		return false, aerr
	}
	for _, f := range l.fields() {
		if m, vec := f.get(); m != nil || len(vec) != 0 {
			return false, errBadInput(fmt.Sprintf("%s frame metadata must not carry the %q field; send it as a binary section", endpoint, f.name))
		}
	}
	rest := secs[1:]
	for _, f := range l.fields() {
		switch {
		case len(rest) > 0 && rest[0].Tag == f.tag():
			if f.mat != nil {
				data := rest[0].Float64s()
				if !wirefmt.TooLargeToPool(body) || 2*len(rest[0].Raw) <= cap(body) {
					data = append([]float64(nil), data...)
				}
				f.set(&WireMatrix{Rows: int(rest[0].A), Cols: int(rest[0].B), Data: data}, nil)
			} else {
				f.set(nil, rest[0].Float64s())
				aliased = true
			}
			rest = rest[1:]
		case !f.optional:
			return false, errBadInput(fmt.Sprintf("%s frame needs %v sections", endpoint, l))
		}
	}
	if len(rest) != 0 {
		return false, errBadInput(fmt.Sprintf("%s frame needs %v sections", endpoint, l))
	}
	return aliased, nil
}

// ok encodes v (timed as the encode stage) in the negotiated encoding — v's
// frame (see encodeFrame) or its JSON document — and finishes the response.
// An encode failure is returned for fail to answer instead.
func (rc *reqScope) ok(w http.ResponseWriter, v any) error {
	t0 := time.Now()
	// Failpoint: an injected encode failure takes the same 500 path as a
	// real serialization error. Both encodings pass through it.
	err := faultinject.Fire(siteWireEncode)
	if err != nil {
		return err
	}
	var body []byte
	if rc.frameResp {
		var frame *[]byte
		if frame, err = encodeFrame(v); err == nil {
			defer wirefmt.PutBuffer(frame)
			body = *frame
		}
	} else {
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(v)
		body = buf.Bytes()
	}
	if err != nil {
		return &apiError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()}
	}
	rc.stages.add(stageEncode, time.Since(t0))
	if rc.frameResp {
		rc.s.metrics.hotWireRespBinary.Inc()
		rc.respCT = wirefmt.ContentType
	} else {
		rc.s.metrics.hotWireRespJSON.Inc()
	}
	rc.finish(w, http.StatusOK, body)
	return nil
}

// encodeFrame writes v as one frame in a pooled buffer (release it with
// wirefmt.PutBuffer): the JSON metadata section, then v's bulk sections in
// layout order — an absent optional one is skipped.
func encodeFrame(v any) (*[]byte, error) {
	l := layoutOf(v)
	var (
		scratch [wirefmt.MaxSections]wirefmt.Section
		held    [wirefmt.MaxSections]struct {
			m   *WireMatrix
			vec []float64
		}
	)
	// The bulk payloads leave v while the metadata is marshaled, so that a
	// request — which is its own metadata — renders without them.
	for i, f := range l.fields() {
		held[i].m, held[i].vec = f.get()
		f.set(nil, nil)
	}
	metaJSON, err := json.Marshal(l.meta)
	for i, f := range l.fields() {
		f.set(held[i].m, held[i].vec)
	}
	if err != nil {
		return nil, err
	}
	secs := append(scratch[:0], wirefmt.JSONSection(metaJSON))
	for i, f := range l.fields() {
		m := held[i].m
		switch {
		case f.vec != nil:
			secs = append(secs, wirefmt.VectorSection(held[i].vec))
		case m != nil:
			// MatrixSection narrows to the frame's u32 dims; a shape that does
			// not survive that must fail here, not arrive as a smaller matrix.
			if int64(uint32(m.Rows)) != int64(m.Rows) || int64(uint32(m.Cols)) != int64(m.Cols) {
				return nil, fmt.Errorf("serve: %s is %dx%d, beyond the frame format's dimensions", f.name, m.Rows, m.Cols)
			}
			secs = append(secs, wirefmt.MatrixSection(m.Rows, m.Cols, m.Data))
		case !f.optional:
			return nil, fmt.Errorf("serve: %T frame needs its %s section", v, f.name)
		}
	}
	n, err := wirefmt.FrameLen(secs...)
	if err != nil {
		return nil, err
	}
	buf := wirefmt.GetBuffer(n)
	out, err := wirefmt.AppendFrame(*buf, secs...)
	if err != nil {
		wirefmt.PutBuffer(buf)
		return nil, err
	}
	*buf = out
	return buf, nil
}
