// Package wirefmt implements the tcqr binary frame codec: the
// length-prefixed little-endian encoding tcqrd serves alongside JSON under
// the application/x-tcqr-frame media type, and the inter-node format the
// cluster tier (internal/cluster) forwards requests over.
//
// A frame is a 16-byte header followed by up to MaxSections sections, each
// a 16-byte section header plus a payload padded to an 8-byte boundary:
//
//	frame header   magic "TCQF" | version u8 | section count u8 |
//	               reserved u16 | frame length u32 | reserved u32
//	section header tag u8 | reserved u8×3 | dim a u32 | dim b u32 |
//	               payload length u32
//	payload        payload-length bytes, zero-padded to 8-byte alignment
//
// All integers are little-endian. Float payloads are IEEE-754 float64
// little-endian; because every payload starts on an 8-byte boundary
// (headers are 16 bytes and padding keeps sections aligned), a decoder on a
// little-endian host can expose them as []float64 views of the frame buffer
// without copying. Section tags: TagJSON carries request/response metadata
// as UTF-8 JSON (a=0, b=0); TagMatrix carries a column-major a×b float64
// matrix; TagVector carries a float64 vector of length a (b=0). The frame
// length field covers the whole frame including the header, and decoding is
// strict: bad magic, unknown versions or tags, dimension/length mismatches,
// trailing bytes, and nonzero padding are all errors — never panics.
package wirefmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// ContentType is the media type negotiated for binary frames.
const ContentType = "application/x-tcqr-frame"

// Version is the frame format version this codec reads and writes.
const Version = 1

// MaxSections bounds the sections in one frame (largest real frame today is
// a low-rank response: JSON + U + s + V).
const MaxSections = 8

const (
	headerLen    = 16
	secHeaderLen = 16
)

// Magic opens every frame.
var Magic = [4]byte{'T', 'C', 'Q', 'F'}

// Tag identifies a section's payload type.
type Tag uint8

const (
	// TagJSON is UTF-8 JSON metadata (the non-bulk request/response fields).
	TagJSON Tag = 1
	// TagMatrix is a column-major float64 matrix; A=rows, B=cols.
	TagMatrix Tag = 2
	// TagVector is a float64 vector; A=len, B=0.
	TagVector Tag = 3
)

// Section is one frame section. On decode, Raw aliases the frame buffer
// (valid only while the buffer is); on encode, exactly one of Raw (TagJSON)
// or F64 (TagMatrix/TagVector) supplies the payload.
type Section struct {
	Tag  Tag
	A, B uint32 // matrix rows×cols, or vector length×0, or 0×0 for JSON
	Raw  []byte
	F64  []float64
}

// JSONSection wraps metadata bytes for encoding.
func JSONSection(meta []byte) Section {
	return Section{Tag: TagJSON, Raw: meta}
}

// MatrixSection wraps a column-major rows×cols float64 payload for encoding.
func MatrixSection(rows, cols int, data []float64) Section {
	return Section{Tag: TagMatrix, A: uint32(rows), B: uint32(cols), F64: data}
}

// VectorSection wraps a float64 vector payload for encoding.
func VectorSection(data []float64) Section {
	return Section{Tag: TagVector, A: uint32(len(data)), F64: data}
}

// Float64s returns the section payload as float64s. On a little-endian host
// with an 8-byte-aligned payload (the layout guarantees alignment whenever
// the frame buffer itself is 8-byte aligned) the returned slice is a
// zero-copy view of Raw; otherwise the payload is converted element-wise.
// Only valid for TagMatrix/TagVector sections produced by Decode.
func (s *Section) Float64s() []float64 {
	n := len(s.Raw) / 8
	if n == 0 {
		return nil
	}
	p := unsafe.Pointer(&s.Raw[0])
	if nativeLittleEndian && uintptr(p)%8 == 0 {
		return unsafe.Slice((*float64)(p), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(s.Raw[8*i:]))
	}
	return out
}

var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// payloadLen returns the encoded payload length of s in bytes.
func (s *Section) payloadLen() (int, error) {
	switch s.Tag {
	case TagJSON:
		return len(s.Raw), nil
	case TagMatrix:
		if uint64(s.A)*uint64(s.B) != uint64(len(s.F64)) {
			return 0, fmt.Errorf("wirefmt: matrix section %dx%d but %d elements", s.A, s.B, len(s.F64))
		}
		return 8 * len(s.F64), nil
	case TagVector:
		if int(s.A) != len(s.F64) {
			return 0, fmt.Errorf("wirefmt: vector section length %d but %d elements", s.A, len(s.F64))
		}
		return 8 * len(s.F64), nil
	}
	return 0, fmt.Errorf("wirefmt: unknown section tag %d", s.Tag)
}

func pad8(n int) int { return (n + 7) &^ 7 }

// FrameLen returns the encoded size of a frame holding secs, so callers can
// size a buffer before AppendFrame.
func FrameLen(secs ...Section) (int, error) {
	total := headerLen
	for i := range secs {
		n, err := secs[i].payloadLen()
		if err != nil {
			return 0, err
		}
		total += secHeaderLen + pad8(n)
	}
	return total, nil
}

// AppendFrame appends one encoded frame holding secs to dst and returns the
// extended buffer. Float payloads are written little-endian regardless of
// host byte order.
func AppendFrame(dst []byte, secs ...Section) ([]byte, error) {
	if len(secs) > MaxSections {
		return dst, fmt.Errorf("wirefmt: %d sections exceeds the maximum %d", len(secs), MaxSections)
	}
	total, err := FrameLen(secs...)
	if err != nil {
		return dst, err
	}
	if total > math.MaxUint32 {
		return dst, fmt.Errorf("wirefmt: frame of %d bytes exceeds the u32 length field", total)
	}
	base := len(dst)
	if cap(dst)-base < total {
		grown := make([]byte, base, base+total)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+total]
	h := dst[base:]
	copy(h, Magic[:])
	h[4] = Version
	h[5] = byte(len(secs))
	h[6], h[7] = 0, 0
	binary.LittleEndian.PutUint32(h[8:], uint32(total))
	binary.LittleEndian.PutUint32(h[12:], 0)
	off := headerLen
	for i := range secs {
		s := &secs[i]
		n, _ := s.payloadLen()
		sh := h[off:]
		sh[0] = byte(s.Tag)
		sh[1], sh[2], sh[3] = 0, 0, 0
		binary.LittleEndian.PutUint32(sh[4:], s.A)
		binary.LittleEndian.PutUint32(sh[8:], s.B)
		binary.LittleEndian.PutUint32(sh[12:], uint32(n))
		off += secHeaderLen
		body := h[off : off+pad8(n)]
		if s.Tag == TagMatrix || s.Tag == TagVector {
			putFloat64s(body, s.F64)
		} else {
			copy(body, s.Raw)
		}
		for i := n; i < pad8(n); i++ {
			body[i] = 0
		}
		off += pad8(n)
	}
	return dst, nil
}

// putFloat64s writes vals little-endian into dst. On little-endian hosts
// this is one copy of the underlying bytes.
func putFloat64s(dst []byte, vals []float64) {
	if len(vals) == 0 {
		return
	}
	if nativeLittleEndian {
		src := unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), 8*len(vals))
		copy(dst, src)
		return
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// ErrFormat wraps every decode error so callers can classify malformed
// frames without matching message text.
var ErrFormat = errors.New("malformed frame")

func formatErr(format string, args ...any) error {
	return fmt.Errorf("wirefmt: %w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

// Decode parses one frame from buf, appending sections to scratch (pass nil
// or a reused scratch[:0] to avoid the slice allocation). Section Raw fields
// alias buf. Decoding is strict — see the package comment — and bounds every
// dimension product in uint64 so hostile headers cannot overflow.
func Decode(buf []byte, scratch []Section) ([]Section, error) {
	if len(buf) < headerLen {
		return nil, formatErr("%d bytes is shorter than the %d-byte header", len(buf), headerLen)
	}
	if [4]byte(buf[:4]) != Magic {
		return nil, formatErr("bad magic %q", buf[:4])
	}
	if buf[4] != Version {
		return nil, formatErr("unsupported version %d", buf[4])
	}
	nsec := int(buf[5])
	if nsec > MaxSections {
		return nil, formatErr("%d sections exceeds the maximum %d", nsec, MaxSections)
	}
	if buf[6] != 0 || buf[7] != 0 {
		return nil, formatErr("nonzero reserved header bytes")
	}
	if got := binary.LittleEndian.Uint32(buf[8:]); uint64(got) != uint64(len(buf)) {
		return nil, formatErr("frame length field %d but %d bytes present", got, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[12:]) != 0 {
		return nil, formatErr("nonzero reserved header word")
	}
	secs := scratch[:0]
	off := headerLen
	for i := 0; i < nsec; i++ {
		if len(buf)-off < secHeaderLen {
			return nil, formatErr("section %d header truncated", i)
		}
		sh := buf[off:]
		tag := Tag(sh[0])
		if sh[1] != 0 || sh[2] != 0 || sh[3] != 0 {
			return nil, formatErr("section %d: nonzero reserved bytes", i)
		}
		a := binary.LittleEndian.Uint32(sh[4:])
		b := binary.LittleEndian.Uint32(sh[8:])
		plen := int(binary.LittleEndian.Uint32(sh[12:]))
		off += secHeaderLen
		if len(buf)-off < pad8(plen) {
			return nil, formatErr("section %d: payload of %d bytes truncated", i, plen)
		}
		switch tag {
		case TagJSON:
			if a != 0 || b != 0 {
				return nil, formatErr("section %d: JSON section with nonzero dims %dx%d", i, a, b)
			}
		case TagMatrix:
			if a == 0 || b == 0 {
				return nil, formatErr("section %d: matrix section with zero dim %dx%d", i, a, b)
			}
			// The element count is bounded before multiplying by 8: dims near
			// 2³¹ would wrap rows·cols·8 past uint64 and sneak a zero-payload
			// header through the length check.
			if uint64(a)*uint64(b) > math.MaxUint32/8 {
				return nil, formatErr("section %d: matrix %dx%d exceeds the u32 payload field", i, a, b)
			}
			if uint64(a)*uint64(b)*8 != uint64(plen) {
				return nil, formatErr("section %d: matrix %dx%d needs %d payload bytes, header says %d",
					i, a, b, uint64(a)*uint64(b)*8, plen)
			}
		case TagVector:
			if b != 0 {
				return nil, formatErr("section %d: vector section with nonzero second dim %d", i, b)
			}
			if uint64(a)*8 != uint64(plen) {
				return nil, formatErr("section %d: vector of %d needs %d payload bytes, header says %d",
					i, a, uint64(a)*8, plen)
			}
		default:
			return nil, formatErr("section %d: unknown tag %d", i, tag)
		}
		payload := buf[off : off+plen]
		for _, pb := range buf[off+plen : off+pad8(plen)] {
			if pb != 0 {
				return nil, formatErr("section %d: nonzero padding", i)
			}
		}
		secs = append(secs, Section{Tag: tag, A: a, B: b, Raw: payload})
		off += pad8(plen)
	}
	if off != len(buf) {
		return nil, formatErr("%d trailing bytes after %d sections", len(buf)-off, nsec)
	}
	return secs, nil
}

// FindSection returns the first section with the given tag, or nil.
func FindSection(secs []Section, tag Tag) *Section {
	for i := range secs {
		if secs[i].Tag == tag {
			return &secs[i]
		}
	}
	return nil
}

// maxPooledBuf caps the capacity a recycled buffer may retain: frames
// larger than this (a cold 2M-element factorize body is ~16MB) are left to
// the garbage collector rather than pinned in the pool.
const maxPooledBuf = 4 << 20

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// GetBuffer returns a buffer drawn from a pool: *b has length zero and
// capacity at least sizeHint, and its backing array is 8-byte aligned (Go
// heap allocations of this size class always are), so frames decoded in place
// support zero-copy float views. Reslice or grow *b as needed and release b
// itself with PutBuffer: the pool keeps the pointer, so a buffer goes round
// without a new slice header each time. A buffer too large to pool is made
// without touching the pool. A pooled buffer smaller than sizeHint is
// dropped, not put back: put back, it would sit in the pool's per-processor
// slot, be drawn first by the next request of the same size, and be too
// small again, so that request's buffer would be made afresh every time.
func GetBuffer(sizeHint int) *[]byte {
	if sizeHint > maxPooledBuf {
		nb := make([]byte, 0, sizeHint)
		return &nb
	}
	b := bufPool.Get().(*[]byte)
	if cap(*b) < sizeHint {
		nb := make([]byte, 0, sizeHint)
		return &nb
	}
	*b = (*b)[:0]
	return b
}

// TooLargeToPool reports whether b is over the pool's capacity bound: such a
// buffer never came out of the pool and PutBuffer will not put it in, so it
// belongs to whoever still views it and the collector frees it after them.
func TooLargeToPool(b []byte) bool { return cap(b) > maxPooledBuf }

// PutBuffer recycles a buffer obtained from GetBuffer. Callers must not
// retain views into *b (including Float64s results) after releasing it,
// unless TooLargeToPool(*b): then this is a no-op. A nil b is a no-op too.
func PutBuffer(b *[]byte) {
	if b == nil || TooLargeToPool(*b) {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}
