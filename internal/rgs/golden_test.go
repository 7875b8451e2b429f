package rgs

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tcqr/internal/dense"
	"tcqr/internal/gram"
	"tcqr/internal/matgen"
)

// bitsHash is FNV-1a over the Float32bits of x, little-endian.
func bitsHash(x []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range x {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestFactorBitsGolden pins the bits Factor returns — Q, R and ColumnScales
// — across the safeguards (column scaling on/off, second pass on/off) and
// two panels, on a matrix whose column norms spread over three decades (so
// the scales are not all 1) and whose width is three times the cutoff (so
// the Algorithm 1 recursion and its engine GEMMs run, not only a panel).
// Reordering one operation of the factorization moves the hashes; they were
// recorded at the parent of the commit that folded the safeguards into
// Factor, so they also prove that fold changed no bit.
func TestFactorBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other ports may fuse multiply-adds in the Go loops")
	}
	type bits struct{ q, r, scales uint64 }
	golden := map[string]bits{
		"caqr/noscale=false/reorth=false": {0x112bc7016e4f8f5b, 0x6f83308cb604d403, 0x12f6ef4b7b913ae7},
		"caqr/noscale=false/reorth=true":  {0x38bd7de825929029, 0xef223383309b5580, 0x12f6ef4b7b913ae7},
		"caqr/noscale=true/reorth=false":  {0xba7b5c4b34d8b639, 0x51e27c573b2399c1, 0xcbf29ce484222325},
		"caqr/noscale=true/reorth=true":   {0xd8aa07593666d311, 0x9ae901aef26f33c8, 0xcbf29ce484222325},
		"mgs/noscale=false/reorth=false":  {0x7cc99fc8a9212cb6, 0xa56537515c326474, 0x12f6ef4b7b913ae7},
		"mgs/noscale=false/reorth=true":   {0x24a671128da89e80, 0x886b5c61366a21ed, 0x12f6ef4b7b913ae7},
		"mgs/noscale=true/reorth=false":   {0xaa4d181e1118de1, 0x783929d7afbf6dd3, 0xcbf29ce484222325},
		"mgs/noscale=true/reorth=true":    {0x65cbc4059a43c816, 0x27447e46365a2a67, 0xcbf29ce484222325},
	}
	a := dense.ToF32(matgen.BadlyScaled(rand.New(rand.NewSource(33)), 480, 96, 3))
	panels := []struct {
		name  string
		panel gram.Panel
	}{{"caqr", &gram.CAQRPanel{}}, {"mgs", gram.MGSPanel{}}}
	for _, p := range panels {
		for _, noScale := range []bool{false, true} {
			for _, reorth := range []bool{false, true} {
				name := fmt.Sprintf("%s/noscale=%v/reorth=%v", p.name, noScale, reorth)
				t.Run(name, func(t *testing.T) {
					res, err := Factor(a, Options{Panel: p.panel, Cutoff: 32, DisableScaling: noScale, ReOrthogonalize: reorth})
					if err != nil {
						t.Fatal(err)
					}
					if (res.ColumnScales == nil) != noScale || res.Reorthogonalized != reorth {
						t.Fatalf("scales nil = %v, reorthogonalized = %v", res.ColumnScales == nil, res.Reorthogonalized)
					}
					got := bits{bitsHash(res.Q.Data), bitsHash(res.R.Data), bitsHash(res.ColumnScales)}
					if got != golden[name] {
						t.Errorf("factor bits moved: got {%#x, %#x, %#x}, want {%#x, %#x, %#x}",
							got.q, got.r, got.scales, golden[name].q, golden[name].r, golden[name].scales)
					}
				})
			}
		}
	}

	// At 480×96 with cutoff 32 the engine GEMMs are too small for most of the
	// packed kernel's paths. At 1024×256 and the default cutoff the top R12 is
	// 128×128×1024, whose rows the packed GEMM splits between workers from two
	// processors up, and the trailing update is 1024×128×128 in full 32×4
	// tiles that the kernel stores itself (on an AVX-512 host). The hashes
	// were recorded at the parent of the commit that added those paths.
	//
	// At 4096×128 the whole factorization is one CAQR panel whose tile tree
	// has two levels (16 tiles, then a 512×32 stack of 2), serve-cold-tall's
	// shape; at 1000×96 the last tile of each tree is 488 rows, the ragged
	// tile. Those two hashes were recorded at the parent of the commit that
	// gave the tile tree its fused MGS kernel and workspace.
	//
	// Each shape is factored twice: from the float32 narrowing, and from the
	// float64 matrix itself, which Factor narrows in its own sweep; both must
	// give the recorded bits.
	for _, c := range []struct {
		m, n int
		seed int64
		want bits
	}{
		{1024, 256, 34, bits{0x31463714487f720a, 0x31edf590d2210571, 0xa43a7b15c9f0a2b2}},
		{4096, 128, 35, bits{0x6ccf566d400db7fa, 0x4e7994dee4210bf0, 0x8660b206ad989549}},
		{1000, 96, 36, bits{0xdf2e61eddc98fde9, 0x14a8ab017ca79c43, 0xe2f44fbb773ef39d}},
	} {
		t.Run(fmt.Sprintf("default/%dx%d", c.m, c.n), func(t *testing.T) {
			a64 := matgen.BadlyScaled(rand.New(rand.NewSource(c.seed)), c.m, c.n, 3)
			for _, src := range []string{"float32", "float64"} {
				var res *Result
				var err error
				if src == "float32" {
					res, err = Factor(dense.ToF32(a64), Options{})
				} else {
					res, err = Factor(a64, Options{})
				}
				if err != nil {
					t.Fatal(err)
				}
				got := bits{bitsHash(res.Q.Data), bitsHash(res.R.Data), bitsHash(res.ColumnScales)}
				if got != c.want {
					t.Errorf("factor bits moved (%s source): got {%#x, %#x, %#x}, want {%#x, %#x, %#x}",
						src, got.q, got.r, got.scales, c.want.q, c.want.r, c.want.scales)
				}
			}
		})
	}
}
