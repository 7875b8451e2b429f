package wirefmt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"unsafe"
)

func mustFrame(t *testing.T, secs ...Section) []byte {
	t.Helper()
	buf, err := AppendFrame(nil, secs...)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	return buf
}

// TestGoldenFrameBytes pins the exact wire bytes of a small frame: the
// format is the future inter-node protocol, so the layout must never drift
// silently. The expected bytes are assembled by hand, independent of
// AppendFrame.
func TestGoldenFrameBytes(t *testing.T) {
	meta := []byte(`{"key":"k"}`) // 11 bytes -> padded to 16
	vec := []float64{1, -2.5}
	got := mustFrame(t, JSONSection(meta), VectorSection(vec))

	var want bytes.Buffer
	want.Write(Magic[:])
	want.Write([]byte{Version, 2, 0, 0})
	binary.Write(&want, binary.LittleEndian, uint32(16+16+16+16+16)) // header + 2*(secheader+payload)
	binary.Write(&want, binary.LittleEndian, uint32(0))
	want.Write([]byte{byte(TagJSON), 0, 0, 0})
	binary.Write(&want, binary.LittleEndian, [3]uint32{0, 0, 11})
	want.Write(meta)
	want.Write(make([]byte, 5)) // pad 11 -> 16
	want.Write([]byte{byte(TagVector), 0, 0, 0})
	binary.Write(&want, binary.LittleEndian, [3]uint32{2, 0, 16})
	binary.Write(&want, binary.LittleEndian, [2]uint64{math.Float64bits(1), math.Float64bits(-2.5)})

	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("frame bytes drifted:\n got %s\nwant %s", hex.EncodeToString(got), hex.EncodeToString(want.Bytes()))
	}

	// The first 16 bytes are additionally pinned as a literal so a byte-order
	// or magic regression reads as an obvious diff.
	const goldenHeader = "54435146010200005000000000000000"
	if h := hex.EncodeToString(got[:16]); h != goldenHeader {
		t.Fatalf("frame header = %s, want %s", h, goldenHeader)
	}
}

func TestRoundTrip(t *testing.T) {
	meta := []byte(`{"iterations":3,"converged":true}`)
	mat := []float64{1, 2, 3, 4, 5, 6} // 3x2 column-major
	vec := []float64{0.5, math.Pi, -0}
	buf := mustFrame(t, JSONSection(meta), MatrixSection(3, 2, mat), VectorSection(vec))

	secs, err := Decode(buf, nil)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(secs) != 3 {
		t.Fatalf("decoded %d sections, want 3", len(secs))
	}
	if js := FindSection(secs, TagJSON); js == nil || !bytes.Equal(js.Raw, meta) {
		t.Fatalf("JSON section = %+v", js)
	}
	ms := FindSection(secs, TagMatrix)
	if ms == nil || ms.A != 3 || ms.B != 2 {
		t.Fatalf("matrix section = %+v", ms)
	}
	gotMat := ms.Float64s()
	for i, v := range mat {
		if math.Float64bits(gotMat[i]) != math.Float64bits(v) {
			t.Fatalf("matrix[%d] = %g, want %g", i, gotMat[i], v)
		}
	}
	vs := FindSection(secs, TagVector)
	gotVec := vs.Float64s()
	for i, v := range vec {
		if math.Float64bits(gotVec[i]) != math.Float64bits(v) {
			t.Fatalf("vector[%d] = %g, want %g", i, gotVec[i], v)
		}
	}
}

// TestZeroCopyAliasing verifies the decode fast path: on an aligned
// little-endian buffer the float view must alias the frame bytes, not copy
// them.
func TestZeroCopyAliasing(t *testing.T) {
	if !nativeLittleEndian {
		t.Skip("big-endian host: views are converting copies by design")
	}
	vec := []float64{1, 2, 3, 4}
	buf := mustFrame(t, VectorSection(vec))
	secs, err := Decode(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	view := secs[0].Float64s()
	buf[len(buf)-8] = 0xFF // mutate the last float's low byte through the frame
	if view[3] == 4 {
		t.Fatal("Float64s returned a copy on an aligned little-endian buffer")
	}
}

// TestDecodeZeroAlloc pins the zero-allocation decode contract the serving
// hot path depends on: frame -> sections -> float view without heap growth
// when the caller supplies scratch.
func TestDecodeZeroAlloc(t *testing.T) {
	vec := make([]float64, 1024)
	buf := mustFrame(t, JSONSection([]byte(`{"key":"x"}`)), VectorSection(vec))
	scratch := make([]Section, 0, MaxSections)
	allocs := testing.AllocsPerRun(100, func() {
		secs, err := Decode(buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if v := FindSection(secs, TagVector).Float64s(); len(v) != 1024 {
			t.Fatal("bad view")
		}
	})
	if allocs != 0 {
		t.Fatalf("Decode+Float64s allocated %.1f times per run, want 0", allocs)
	}
}

func TestEncodeIntoPooledBuffer(t *testing.T) {
	vec := []float64{1, 2, 3}
	n, err := FrameLen(VectorSection(vec))
	if err != nil {
		t.Fatal(err)
	}
	buf := GetBuffer(n)
	defer PutBuffer(buf)
	out, err := AppendFrame(*buf, VectorSection(vec))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("frame length %d, want %d", len(out), n)
	}
	if _, err := Decode(out, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := mustFrame(t, VectorSection([]float64{1, 2}))
	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:12],
		"bad magic":      append([]byte("NOPE"), good[4:]...),
		"bad version":    mutate(good, 4, 9),
		"reserved byte":  mutate(good, 6, 1),
		"section count":  mutate(good, 5, MaxSections+1),
		"length low":     mutate(good, 8, byte(len(good)-1)),
		"truncated":      good[:len(good)-4],
		"trailing":       append(append([]byte(nil), good...), 0),
		"unknown tag":    mutate(good, 16, 99),
		"tag 4":          mutate(good, 16, 4),
		"vector dim b":   mutate(good, 24, 1),
		"payload len":    mutate(good, 28, 8),
		"json with dims": func() []byte { b := mustFrame(t, JSONSection([]byte("{}"))); return mutate(b, 20, 1) }(),
		"nonzero pad":    func() []byte { b := mustFrame(t, JSONSection([]byte("{}"))); return mutate(b, len(b)-1, 7) }(),
		"matrix zero dim": func() []byte {
			b := mustFrame(t, MatrixSection(1, 1, []float64{1}))
			b = mutate(b, 20, 0) // rows = 0
			return b
		}(),
	}
	for name, buf := range cases {
		if _, err := Decode(buf, nil); err == nil {
			t.Errorf("%s: Decode accepted a malformed frame", name)
		}
	}
	// Overflow-scale dims: rows*cols*8 wraps u64 math only if unchecked.
	big := mustFrame(t, MatrixSection(1, 1, []float64{1}))
	binary.LittleEndian.PutUint32(big[20:], 0x80000000)
	binary.LittleEndian.PutUint32(big[24:], 0x80000000)
	if _, err := Decode(big, nil); err == nil {
		t.Error("overflow-scale dims accepted")
	}
}

func mutate(b []byte, i int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[i] = v
	return out
}

func TestAppendFrameValidation(t *testing.T) {
	if _, err := AppendFrame(nil, Section{Tag: TagMatrix, A: 2, B: 2, F64: []float64{1}}); err == nil {
		t.Error("mismatched matrix dims accepted")
	}
	if _, err := AppendFrame(nil, Section{Tag: Tag(42)}); err == nil {
		t.Error("unknown tag accepted")
	}
	secs := make([]Section, MaxSections+1)
	for i := range secs {
		secs[i] = JSONSection([]byte("{}"))
	}
	if _, err := AppendFrame(nil, secs...); err == nil {
		t.Error("too many sections accepted")
	}
}

// TestFloat64sUnalignedFallback pins down the element-wise decode fallback:
// a payload that is not 8-byte aligned must still produce bit-identical
// floats to the zero-copy path, just via copying. Real frames are always
// aligned (GetBuffer guarantees it); the fallback exists for callers that
// hand Decode an arbitrary slice.
func TestFloat64sUnalignedFallback(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Float64frombits(0x7FF8000000000001)}
	frame, err := AppendFrame(nil, JSONSection(nil), VectorSection(vals))
	if err != nil {
		t.Fatal(err)
	}

	// Shift the whole frame by one byte so every payload lands misaligned.
	shifted := make([]byte, len(frame)+1)
	copy(shifted[1:], frame)
	secs, err := Decode(shifted[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	vec := FindSection(secs, TagVector)
	if vec == nil {
		t.Fatal("no vector section")
	}
	if uintptr(unsafe.Pointer(&vec.Raw[0]))%8 == 0 {
		t.Fatal("test did not achieve a misaligned payload")
	}
	got := vec.Float64s()
	if len(got) != len(vals) {
		t.Fatalf("decoded %d floats, want %d", len(got), len(vals))
	}
	// Bit-identical, not approximately equal: the fallback must preserve
	// NaN payloads, signed zeros, infinities and subnormals exactly.
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Errorf("element %d: bits %016x, want %016x",
				i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
		}
	}

	// Control: the same frame decoded from its aligned origin yields the
	// same bits through the zero-copy path.
	aligned, err := Decode(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := FindSection(aligned, TagVector).Float64s()
	for i := range vals {
		if math.Float64bits(ctrl[i]) != math.Float64bits(got[i]) {
			t.Errorf("aligned/unaligned mismatch at %d: %016x vs %016x",
				i, math.Float64bits(ctrl[i]), math.Float64bits(got[i]))
		}
	}

	// The fallback returns a copy — mutating it must not write through to
	// the frame buffer (the zero-copy path aliases by contract; the fallback
	// must not half-alias).
	got[0] = 42
	if reDecoded := vec.Float64s(); reDecoded[0] != vals[0] {
		t.Errorf("fallback aliased the frame buffer: re-decode saw %v", reDecoded[0])
	}
}
