package wirefmt

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzBinaryFrameDecode throws arbitrary bytes at the frame decoder: it
// must reject malformed input with an error — truncated payloads, lying
// length fields, overflow-scale dimensions — and never panic. Frames that
// do decode must re-encode to the identical bytes (the codec is
// canonical), and float views must stay in bounds even for NaN/Inf
// payloads.
func FuzzBinaryFrameDecode(f *testing.F) {
	seed := func(secs ...Section) {
		buf, err := AppendFrame(nil, secs...)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	seed(JSONSection([]byte(`{"key":"m0-e000-p0-c0-r00-h0"}`)))
	seed(VectorSection([]float64{1, math.NaN(), math.Inf(1), math.Inf(-1)}))
	seed(JSONSection([]byte(`{}`)), MatrixSection(3, 2, []float64{1, 2, 3, 4, 5, 6}))
	seed(JSONSection(nil), MatrixSection(2, 2, []float64{1, 0, 0, 1}), VectorSection([]float64{0.5, -0.5}))
	// Hand-built hostile headers: overflow-scale dims and lying lengths.
	big := make([]byte, 32)
	copy(big, Magic[:])
	big[4], big[5] = Version, 1
	binary.LittleEndian.PutUint32(big[8:], 32)
	big[16] = byte(TagMatrix)
	binary.LittleEndian.PutUint32(big[20:], 0x80000000)
	binary.LittleEndian.PutUint32(big[24:], 0x80000000)
	f.Add(big)
	f.Add([]byte("TCQF"))
	f.Add(make([]byte, 16))

	scratch := make([]Section, 0, MaxSections)
	f.Fuzz(func(t *testing.T, data []byte) {
		secs, err := Decode(data, scratch)
		if err != nil {
			return
		}
		// Valid frames round-trip byte-for-byte: rebuild from the decoded
		// sections (converting float payloads through the typed view) and
		// compare.
		rebuilt := make([]Section, len(secs))
		for i, s := range secs {
			switch s.Tag {
			case TagJSON:
				rebuilt[i] = JSONSection(s.Raw)
			case TagMatrix:
				v := s.Float64s()
				if len(v) != int(s.A)*int(s.B) {
					t.Fatalf("matrix view has %d elements for %dx%d", len(v), s.A, s.B)
				}
				rebuilt[i] = MatrixSection(int(s.A), int(s.B), v)
			case TagVector:
				v := s.Float64s()
				if len(v) != int(s.A) {
					t.Fatalf("vector view has %d elements for length %d", len(v), s.A)
				}
				rebuilt[i] = VectorSection(v)
			default:
				t.Fatalf("Decode returned unknown tag %d", s.Tag)
			}
		}
		out, err := AppendFrame(nil, rebuilt...)
		if err != nil {
			t.Fatalf("re-encode of a decoded frame failed: %v", err)
		}
		if string(out) != string(data) {
			t.Fatalf("decode/encode round trip changed bytes:\n in  %x\n out %x", data, out)
		}
	})
}
