// Package roundtest is the shared test harness of the slice-rounding kernels
// (internal/f16, internal/bf16 and the tc-ec residual): it runs a kernel's
// dispatching entry point — vector body plus scalar tail, where the host has
// the vector kernels — beside a scalar oracle on identical input and demands
// the same Float32bits in every element and the same overflow/underflow
// counts. Only test files import it.
//
// Three drivers, one comparison: Layouts (every short length at every start
// offset, canaries on both sides, the Classes table as input), Lanes (one
// value at each of the eight vector lanes, for fuzz targets) and Sweep (a
// 2²²-pattern stride of the float32 bit space in tier-1, all 2³² patterns on
// request). Bench times the same two sides at the slab sizes the GEMM hooks.
//
// ParkCaches and MedianMallocs count allocations for the allocation tests.
package roundtest

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Kernel is one in-place slice kernel under test. Both functions rewrite x
// and return the overflow and underflow tallies (zero for a kernel that does
// not count). Dispatch is the exported entry point; Scalar is the oracle:
// the package's named scalar loop, or a per-element definition.
type Kernel struct {
	Name     string
	Dispatch func(x []float32) (overflow, underflow int64)
	Scalar   func(x []float32) (overflow, underflow int64)
}

// Uncounted adapts a kernel that keeps no tallies to Kernel's signature.
func Uncounted(f func(x []float32)) func([]float32) (int64, int64) {
	return func(x []float32) (int64, int64) { f(x); return 0, 0 }
}

// Classes holds every class of float32 that has bitten a half-precision
// converter, as bit patterns.
var Classes = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x007fffff, 0x80000001, // float32 subnormals
	0x33000000, 0xb3000000, // ±2⁻²⁵: binary16 tie between 0 and the smallest subnormal (to even: 0)
	0x33000001,             // just above it: rounds up to 2⁻²⁴
	0x33c00000, 0xb3c00000, // ±1.5·2⁻²⁴: tie between subnormals 1 and 2 (to even: 2)
	0x33800000, 0x38800000, // 2⁻²⁴ and 2⁻¹⁴: smallest binary16 subnormal and normal
	0x387fc000, 0x387fe000, // the largest subnormal and the tie just above it
	0x3f800000, 0xbf800000, // ±1
	0x3f801000, 0x3f803000, // 1 + 2⁻¹¹ (tie to even: down), 1 + 3·2⁻¹¹ (tie to even: up)
	0x3f801001, 0x3f800fff, // either side of the first tie
	0x3f808000, 0x3f818000, // bfloat16 ties at 1 (down) and 1 + 2⁻⁷ (up)
	0x3dcccccd, 0x40490fdb, 0x33d6bf95, // 0.1, π, 1e-7
	0x477fe000, 0xc77fe000, // ±65504: binary16 MaxValue
	0x477fefff,             // 65519.996: the largest float32 that stays finite in binary16
	0x477ff000, 0xc77ff000, // ±65520: the tie that carries into ±Inf
	0x47800000, 0x4788b800, 0xc788b800, // 65536, ±70000
	0x7149f2ca,             // 1e30: overflows binary16, not bfloat16
	0x7f7f0000, 0x7f7f7fff, // bfloat16 MaxValue and the largest float32 that rounds to it
	0x7f7f8000, 0xff7f8000, // the bfloat16 tie that carries into ±Inf
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, // quiet NaN, nothing but the quiet bit
	0x7fd54000,             // quiet, payload in the high ten mantissa bits only
	0x7f802000, 0x7fa00000, // signalling, payload in the high ten only
	0x7f800001, 0x7f801fff, 0xff800001, // signalling, payload in the low thirteen only
	0x7f80ffff,             // signalling, payload in bfloat16's discarded sixteen only
	0x7f803001, 0xffbfffff, // signalling, payload in both fields
	0x7fc01234, 0xffffffff, // quiet, payload in both fields
}

// canary is the value of every element around the slice under test: finite,
// and not representable in binary16 or bfloat16, so a stray write or a stray
// rounding both change its bits.
const canary = 0x4640e6b7 // 12345.678

// compare runs both sides of k on copies of in and reports any difference.
// got and want are scratch of len(in) or more.
func compare(t testing.TB, k Kernel, in, got, want []float32) bool {
	got, want = got[:len(in)], want[:len(in)]
	copy(got, in)
	copy(want, in)
	ov, uf := k.Dispatch(got)
	wov, wuf := k.Scalar(want)
	ok := true
	for i := range in {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Errorf("%s: input %#08x at index %d of %d: dispatch %#08x, scalar %#08x",
				k.Name, math.Float32bits(in[i]), i, len(in), math.Float32bits(got[i]), math.Float32bits(want[i]))
			ok = false
		}
	}
	if ov != wov || uf != wuf {
		t.Errorf("%s: %d elements from %#08x: dispatch counts ov=%d uf=%d, scalar ov=%d uf=%d",
			k.Name, len(in), firstBits(in), ov, uf, wov, wuf)
		ok = false
	}
	return ok
}

func firstBits(x []float32) uint32 {
	if len(x) == 0 {
		return 0
	}
	return math.Float32bits(x[0])
}

// Layouts checks k on every length 0…67 at every start offset 0…7 into a
// larger buffer — unaligned heads, every tail length, more than one trip
// through an unrolled body — with Classes as input (rotated by length and
// offset, so the classes move across the lanes) and canaries on both sides.
func Layouts(t *testing.T, k Kernel) {
	const maxLen, guard = 67, 16
	frame := make([]float32, guard+7+maxLen+guard)
	in, want := make([]float32, maxLen), make([]float32, maxLen)
	for n := 0; n <= maxLen; n++ {
		for off := 0; off < 8; off++ {
			for i := range frame {
				frame[i] = math.Float32frombits(canary)
			}
			for i := range in[:n] {
				in[i] = math.Float32frombits(Classes[(i+n+off)%len(Classes)])
			}
			lo, hi := guard+off, guard+off+n
			if !compare(t, k, in[:n], frame[lo:hi:hi], want) {
				t.Fatalf("%s: at length %d, start offset %d", k.Name, n, off)
			}
			for i, v := range frame {
				if (i < lo || i >= hi) && math.Float32bits(v) != canary {
					t.Fatalf("%s: length %d, start offset %d: canary at frame index %d overwritten with %#08x",
						k.Name, n, off, i, math.Float32bits(v))
				}
			}
		}
	}
}

// Lanes places x at each of the eight vector lanes in turn, the other seven
// holding 1.5, and checks k on each arrangement. Fuzz targets call it so a
// fuzzed value reaches the vector body, not only the scalar tail a
// one-element slice would take.
func Lanes(t testing.TB, k Kernel, x float32) {
	var in, got, want [8]float32
	for lane := range in {
		for i := range in {
			in[i] = 1.5
		}
		in[lane] = x
		compare(t, k, in[:], got[:], want[:])
	}
}

// strideLows are the 64 low halves the tier-1 sweep pairs with every high
// half: the rounding boundaries of both formats (binary16 drops the low 13
// bits and ties at 0x1000; bfloat16 drops all 16 and ties at 0x8000) with
// their neighbours, every single bit, every run of low ones, and a few
// arbitrary patterns.
var strideLows = [64]uint32{
	0x0000, 0x0fff, 0x1000, 0x1001, 0x1fff, 0x7fff, 0x8000, 0x8001, 0xffff,
	0x0001, 0x0002, 0x0004, 0x0008, 0x0010, 0x0020, 0x0040, 0x0080,
	0x0100, 0x0200, 0x0400, 0x0800, 0x2000, 0x4000,
	0x0003, 0x0007, 0x000f, 0x001f, 0x003f, 0x007f, 0x00ff, 0x01ff, 0x03ff, 0x07ff, 0x3fff,
	0x2001, 0x2fff, 0x3000, 0x3001, 0x5000, 0x6000, 0x9000, 0xa000, 0xb000, 0xc000,
	0xd000, 0xdfff, 0xe000, 0xe001, 0xefff, 0xf000, 0xf001, 0xfffe,
	0x1234, 0x5678, 0x9abc, 0xdef0, 0xaaaa, 0x5555, 0xcccc, 0x3333, 0xff00, 0x0ff0, 0xf0f0, 0x0f0f,
}

// Sweep checks k over float32 bit patterns, 64 at a time so the vector body
// runs several iterations per call and a count mismatch is pinned to a
// 64-pattern block: every high half paired with strideLows (2²² patterns),
// or, when exhaustive, with every low half (all 2³², in blocks of 64
// consecutive patterns). High halves are dealt to GOMAXPROCS goroutines.
func Sweep(t *testing.T, k Kernel, exhaustive bool) {
	blocks := 1 // 64-pattern blocks per high half
	if exhaustive {
		blocks = 1 << 16 / 64
	}
	var (
		next   atomic.Uint32 // next high half to take
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var in, got, want [64]float32
			for !failed.Load() {
				hi := next.Add(1) - 1
				if hi >= 1<<16 {
					return
				}
				for b := 0; b < blocks; b++ {
					for i := range in {
						low := strideLows[i]
						if exhaustive {
							low = uint32(b*64 + i)
						}
						in[i] = math.Float32frombits(hi<<16 | low)
					}
					if !compare(t, k, in[:], got[:], want[:]) {
						failed.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Bench measures both sides of each kernel at the shape the GEMM calls the
// pack hooks on: a freshly packed, cache-resident slab of mr·kc = 4096 or
// mc·kc = 32768 elements (the benchmark probe's round_gelem_s streams
// megabytes from memory instead). Each iteration first copies the slab in, as
// packing does — a rounded slab fed back in would turn every data-dependent
// branch of the scalar loop into a well-predicted one and flatter it.
// "vector" is Dispatch, skipped on a host where it is the scalar loop too
// (haveVector false); "scalar" is Scalar.
func Bench(b *testing.B, kernels []Kernel, haveVector bool) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4096, 32768} {
		src, slab := make([]float32, n), make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		for _, k := range kernels {
			for _, side := range []struct {
				name string
				f    func([]float32) (int64, int64)
			}{{"vector", k.Dispatch}, {"scalar", k.Scalar}} {
				b.Run(fmt.Sprintf("%s/%s/%d", k.Name, side.name, n), func(b *testing.B) {
					if side.name == "vector" && !haveVector {
						b.Skip("no vector kernels on this host: the entry point runs the scalar loop")
					}
					b.SetBytes(int64(4 * n))
					for i := 0; i < b.N; i++ {
						copy(slab, src)
						side.f(slab)
					}
				})
			}
		}
	}
}
