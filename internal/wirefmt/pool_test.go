//go:build !race

package wirefmt

import "testing"

// TestBufferPoolRoundTripAllocatesNothing: a warm GetBuffer/PutBuffer round
// trip — the serving path's, a body read into a buffer and a frame encoded
// into another — allocates nothing: the pool keeps the *[]byte it hands out,
// so recycling a buffer needs no new slice header. (Not under -race: the
// detector drops a quarter of sync.Pool.Puts.)
func TestBufferPoolRoundTripAllocatesNothing(t *testing.T) {
	vec := make([]float64, 1024)
	n, err := FrameLen(VectorSection(vec))
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		body, frame := GetBuffer(n), GetBuffer(n)
		*body = (*body)[:n]
		out, err := AppendFrame(*frame, VectorSection(vec))
		if err != nil {
			t.Fatal(err)
		}
		*frame = out
		PutBuffer(frame)
		PutBuffer(body)
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a GetBuffer/PutBuffer round trip allocates %.1f times, want 0", allocs)
	}
}

// TestBufferPoolKeepsABufferOverItsDefault: a body over the pool's 16 KB
// default, a JSON right-hand side of 2048 floats say, gets a recycled buffer
// once one of its size has gone round. (It was made afresh every time while
// GetBuffer put back the smaller buffer it drew first.)
func TestBufferPoolKeepsABufferOverItsDefault(t *testing.T) {
	const n = 40 << 10
	round := func() { PutBuffer(GetBuffer(n)) }
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a warm %d-byte GetBuffer/PutBuffer round trip allocates %.1f times, want 0", n, allocs)
	}
}
