//go:build amd64

package cpufeat

// AVX, AVX2 and F16C report the instruction-set extensions that are both
// advertised by CPUID and usable: the OS has enabled XSAVE and saves the XMM
// and YMM state (XCR0 bits 1 and 2). AVX2 and F16C imply AVX. AVX512F implies
// it too and additionally needs the opmask and the ZMM state saved (XCR0 bits
// 5, 6 and 7).
var AVX, AVX2, F16C, AVX512F = probe()

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. It faults unless CPUID reports
// OSXSAVE, so probe checks that first.
func xgetbv() (eax, edx uint32)

func probe() (avx, avx2, f16c, avx512f bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false, false, false, false
	}
	const (
		osxsave    = 1 << 27 // leaf 1 ECX
		avxBit     = 1 << 28
		f16cBit    = 1 << 29
		avx2Bit    = 1 << 5  // leaf 7 sub-leaf 0 EBX
		avx512fBit = 1 << 16 // leaf 7 sub-leaf 0 EBX
		ymmMask    = 0x06    // XCR0: XMM and YMM state
		zmmMask    = 0xe0    // XCR0: opmask, upper halves of ZMM0-15, ZMM16-31
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avxBit) != osxsave|avxBit {
		return false, false, false, false
	}
	xcr0, _ := xgetbv()
	if xcr0&ymmMask != ymmMask {
		return false, false, false, false
	}
	avx = true
	f16c = ecx1&f16cBit != 0
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		avx2 = ebx7&avx2Bit != 0
		avx512f = ebx7&avx512fBit != 0 && xcr0&zmmMask == zmmMask
	}
	return avx, avx2, f16c, avx512f
}
