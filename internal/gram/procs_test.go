package gram

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"tcqr/internal/dense"
)

// bitsHash is FNV-1a over the Float32bits of x.
func bitsHash(x []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range x {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestCAQRPanelBitsAcrossProcs: the tiles of a tree level run as tasks of
// the blas runner on the caller and the parked helpers, each into its own
// part of the workspace, so Q and R must not depend on how many processors
// share them. 4096×128 is serve-cold-tall's panel (two tree levels under
// each of its four width-32 leaves), 1000×96 has a ragged last tile of 488
// rows.
func TestCAQRPanelBitsAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, s := range []struct{ m, n int }{{4096, 128}, {1000, 96}} {
		a := randPanel(41, s.m, s.n)
		var want [2]uint64
		for i, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			q, r := mustFactor(t, &CAQRPanel{}, a)
			got := [2]uint64{bitsHash(q.Data), bitsHash(r.Data)}
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%dx%d at %d procs: Q, R hashes %#x, one processor %#x", s.m, s.n, procs, got, want)
			}
		}
	}
}

// TestCAQRPanelWorkspaceReused: the leaves of one Factor call share the tile
// tree's memory, and a second call with the same panel gives the same bits,
// so nothing a leaf leaves in the workspace (tile copies, stack, MGS work)
// reaches the next.
func TestCAQRPanelWorkspaceReused(t *testing.T) {
	a := randPanel(42, 2*TileRows+77, 4*TileCols)
	q1, r1 := mustFactor(t, &CAQRPanel{}, a)
	q2, r2 := mustFactor(t, &CAQRPanel{}, a)
	if !dense.Equal(q1, q2) || !dense.Equal(r1, r2) {
		t.Error("two factorizations of one panel differ")
	}
	checkQR(t, "caqr-reused", a, q1, r1, 1e-5, 2e-4)
}
