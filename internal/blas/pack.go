package blas

import "tcqr/internal/dense"

// Micro-tile dimensions of the register-blocked inner kernels. Every kernel
// computes mr rows by kernelNR = 4 columns of C; mr is the family's (kernel.mr:
// 4 for the Go kernel, 8 for float64 YMM, 16 for float32 YMM, 32 for float32
// ZMM). Both pack formats below are laid out so every kernel reads its panels
// with unit stride regardless of the original transpose flags.
const (
	scalarMR = 4  // rows of C per Go micro-tile
	kernelNR = 4  // cols of C per micro-tile, every kernel
	maxMR    = 32 // largest mr of any kernel (sizes edge-tile scratch)
)

// Cache-blocking parameters of the packed GEMM. They are variables, not
// constants, so tests can shrink them to force multi-block control flow on
// small inputs; production code never mutates them. The defaults size the
// packed A block (gemmMC·gemmKC elements) for L2 and a packed B micro-panel
// (kernelNR·gemmKC) for L1.
var (
	gemmMC = 128 // rows of the packed A block (C tile height)
	gemmKC = 256 // depth of one packed slab (k-blocking)
	gemmNC = 512 // cols of the packed B block (C tile width)

	// gemmBlockedMinFlops is the m·n·k threshold below which packing costs
	// more than it saves and the naive reference kernel is used instead.
	gemmBlockedMinFlops = 1 << 14
)

// PackHook transforms freshly packed operand panels in place. The TensorCore
// simulator uses it to round every GEMM operand through a storage format
// (binary16, bfloat16) *during* packing, while the panel is cache-resident —
// fusing what would otherwise be a separate full pass over the operand.
type PackHook[T dense.Float] struct {
	// Round rounds a packed panel in place. Required.
	Round func(panel []T)
	// RoundCount rounds a packed panel in place and additionally reports how
	// many originally finite elements became infinite and how many nonzero
	// elements flushed to zero. Optional; used when the caller tracks
	// overflow/underflow statistics. Zero padding introduced by packing
	// never contributes to either count.
	RoundCount func(panel []T) (overflow, underflow int64)
	// Binary16 declares that Round and RoundCount leave every element a
	// binary16 value (±Inf and NaN included). Every product of two such
	// values is exact in float32, so a GEMM whose operands both carry such a
	// hook may fuse each product into its sum without changing a bit, and
	// the packed GEMM then takes the exact-product kernel family
	// (kernel_amd64.go). A hook whose results binary16 cannot all hold, as
	// bfloat16's, leaves it false.
	Binary16 bool
}

var (
	gemmJobs32 FreeList[gemmJob[float32]]
	gemmJobs64 FreeList[gemmJob[float64]]
)

func getGemmJob[T dense.Float]() *gemmJob[T] {
	var z T
	switch any(z).(type) {
	case float32:
		return any(gemmJobs32.Get()).(*gemmJob[T])
	case float64:
		return any(gemmJobs64.Get()).(*gemmJob[T])
	default:
		return new(gemmJob[T])
	}
}

// putGemmJob clears all of j but its workspace, so a pooled job holds no
// caller's matrices, and recycles it.
func putGemmJob[T dense.Float](j *gemmJob[T]) {
	*j = gemmJob[T]{bufA: j.bufA, bufB: j.bufB}
	switch j := any(j).(type) {
	case *gemmJob[float32]:
		gemmJobs32.Put(j)
	case *gemmJob[float64]:
		gemmJobs64.Put(j)
	}
}

// packAPanel packs op(A)[i0:i0+ib, p0:p0+kb] into dst as mr-row micro-panels:
// panel p holds rows [p·mr, p·mr+mr) of the block in k-major order, mr
// consecutive elements per k index, so the micro-kernel reads it with unit
// stride. Rows past the block edge are zero-filled, which keeps every panel
// full-height; the padded products are discarded at write-back. Both
// transpose orientations are resolved here, so downstream code is always NN.
func packAPanel[T dense.Float](dst []T, a *dense.Matrix[T], tA Transpose, i0, p0, ib, kb, mr int) {
	panels := (ib + mr - 1) / mr
	if tA == NoTrans {
		for p := 0; p < panels; p++ {
			base := p * mr * kb
			r0 := i0 + p*mr
			rows := min(mr, ib-p*mr)
			for l := 0; l < kb; l++ {
				src := a.Col(p0 + l)
				off := base + l*mr
				copy(dst[off:off+rows], src[r0:r0+rows])
				for r := rows; r < mr; r++ {
					dst[off+r] = 0
				}
			}
		}
		return
	}
	// op(A) = Aᵀ: block row i of op(A) is column i0+i of A, contiguous in k.
	for p := 0; p < panels; p++ {
		base := p * mr * kb
		r0 := i0 + p*mr
		rows := min(mr, ib-p*mr)
		for r := 0; r < rows; r++ {
			src := a.Col(r0 + r)[p0 : p0+kb]
			for l, v := range src {
				dst[base+l*mr+r] = v
			}
		}
		for r := rows; r < mr; r++ {
			for l := 0; l < kb; l++ {
				dst[base+l*mr+r] = 0
			}
		}
	}
}

// packBPanel packs op(B)[p0:p0+kb, j0:j0+jb] into dst as kernelNR-column
// micro-panels: panel q holds columns [q·nr, q·nr+nr) of the block in
// k-major order, nr consecutive elements per k index. Columns past the block
// edge are zero-filled.
func packBPanel[T dense.Float](dst []T, b *dense.Matrix[T], tB Transpose, p0, j0, kb, jb int) {
	const nr = kernelNR
	panels := (jb + nr - 1) / nr
	if tB == NoTrans {
		for q := 0; q < panels; q++ {
			base := q * nr * kb
			c0 := j0 + q*nr
			cols := min(nr, jb-q*nr)
			if cols == nr {
				// Four columns at once: four read streams, one sequential
				// write stream.
				s0 := b.Col(c0)[p0 : p0+kb]
				s1 := b.Col(c0 + 1)[p0 : p0+kb]
				s2 := b.Col(c0 + 2)[p0 : p0+kb]
				s3 := b.Col(c0 + 3)[p0 : p0+kb]
				d := dst[base : base+nr*kb]
				for l := range s0 {
					d4 := d[l*nr : l*nr+nr : l*nr+nr]
					d4[0], d4[1], d4[2], d4[3] = s0[l], s1[l], s2[l], s3[l]
				}
				continue
			}
			for s := 0; s < cols; s++ {
				src := b.Col(c0 + s)[p0 : p0+kb]
				for l, v := range src {
					dst[base+l*nr+s] = v
				}
			}
			for s := cols; s < nr; s++ {
				for l := 0; l < kb; l++ {
					dst[base+l*nr+s] = 0
				}
			}
		}
		return
	}
	// op(B) = Bᵀ: row l of op(B) is column p0+l of B, contiguous in j.
	for q := 0; q < panels; q++ {
		base := q * nr * kb
		c0 := j0 + q*nr
		cols := min(nr, jb-q*nr)
		for l := 0; l < kb; l++ {
			src := b.Col(p0 + l)
			off := base + l*nr
			copy(dst[off:off+cols], src[c0:c0+cols])
			for s := cols; s < nr; s++ {
				dst[off+s] = 0
			}
		}
	}
}
