package blas

import "tcqr/internal/dense"

// GemmBatch performs the same GEMM operation on a batch of independent
// triples, mirroring cuBLAS gemmBatched, which the CAQR panel uses to apply
// the tree of small Q factors (step 4 of Eq. 8 in the paper). The problems
// are parallel tasks (runTasks) on the caller and the parked helpers, each
// run serially: a float32 NoTrans/NoTrans one by the register-blocked kernel
// (gemmNNF32), any other by the column-sweep kernel, with the same bits.
func GemmBatch[T dense.Float](tA, tB Transpose, alpha T, a, b []*dense.Matrix[T], beta T, c []*dense.Matrix[T]) {
	if len(a) != len(b) || len(a) != len(c) {
		panic("blas: GemmBatch batch size mismatch")
	}
	for i := range a {
		checkGemm(tA, tB, a[i], b[i], c[i]) // panic here, not on a helper
	}
	job := getBatchJob[T]()
	*job = batchJob[T]{tA: tA, tB: tB, alpha: alpha, beta: beta, as: a, bs: b, cs: c}
	ParallelTasks(len(a), job)
	putBatchJob(job)
}

// batchJob is one GemmBatch call: task i is problem i.
type batchJob[T dense.Float] struct {
	tA, tB      Transpose
	alpha, beta T
	as, bs, cs  []*dense.Matrix[T]
}

func (g *batchJob[T]) RunTask(_, i int) {
	m, n, k := checkGemm(g.tA, g.tB, g.as[i], g.bs[i], g.cs[i])
	if m == 0 || n == 0 {
		return
	}
	if g.alpha == 0 || k == 0 {
		scaleCols(g.cs[i], g.beta, 0, n)
		return
	}
	if c32, ok := any(g.cs[i]).(*dense.M32); ok && tileKernel != kernelGo && g.tA == NoTrans && g.tB == NoTrans {
		gemmNNF32(float32(g.alpha), any(g.as[i]).(*dense.M32), any(g.bs[i]).(*dense.M32), float32(g.beta), c32, m, n, k)
		return
	}
	gemmCols(g.tA, g.tB, g.alpha, g.as[i], g.bs[i], g.beta, g.cs[i], 0, n, k, m)
}

var (
	batchJobs32 FreeList[batchJob[float32]]
	batchJobs64 FreeList[batchJob[float64]]
)

func getBatchJob[T dense.Float]() *batchJob[T] {
	var z T
	switch any(z).(type) {
	case float32:
		return any(batchJobs32.Get()).(*batchJob[T])
	case float64:
		return any(batchJobs64.Get()).(*batchJob[T])
	default:
		return new(batchJob[T])
	}
}

// putBatchJob clears j, so a pooled job holds no caller's matrices, and
// recycles it.
func putBatchJob[T dense.Float](j *batchJob[T]) {
	*j = batchJob[T]{}
	switch j := any(j).(type) {
	case *batchJob[float32]:
		batchJobs32.Put(j)
	case *batchJob[float64]:
		batchJobs64.Put(j)
	}
}
