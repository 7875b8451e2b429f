package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"tcqr"
	"tcqr/internal/accuracy"
	"tcqr/internal/bf16"
	"tcqr/internal/blas"
	"tcqr/internal/dense"
	"tcqr/internal/f16"
	"tcqr/internal/gram"
	"tcqr/internal/house"
	"tcqr/internal/matgen"
	"tcqr/internal/rgs"
	"tcqr/internal/tcsim"
	"tcqr/internal/tsqr"
	"tcqr/internal/wirefmt"
)

// The kernel probe calls single kernels directly, at the shapes the four
// workloads hand them, with inputs fixed by a constant seed: it measures
// the host and the kernels, not the workload inputs. Every row is the median
// of 11 calls after one discarded call. Flop and byte counts are
// computed from the shapes (2mnk for a product, 8 bytes per float64 read
// once), not measured.

const probeSeed = 20200623 // HPDC 2020

// sink keeps results alive so no measured call can be optimised away.
var sink float64

// probeTimer times repeated calls.
type probeTimer struct{ reps int }

// sec returns the median wall time of f in seconds. prep, when non-nil,
// runs before each call outside the timed span.
func (p probeTimer) sec(prep, f func()) float64 {
	times := make([]float64, 0, p.reps)
	for i := 0; i <= p.reps; i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		if d := time.Since(t0).Seconds(); i > 0 {
			times = append(times, d)
		}
	}
	sort.Float64s(times)
	return percentile(times, 50)
}

// randM32 is an m×n float32 matrix of standard normal values.
func randM32(rng *rand.Rand, m, n int) *dense.M32 { return dense.ToF32(matgen.Normal(rng, m, n)) }

// runProbe fills out with every probe row.
func runProbe(ctx context.Context, env *env, out layerSet) error {
	pt := probeTimer{reps: env.pick(11, 3)}
	rng := rand.New(rand.NewSource(probeSeed))
	gflops := func(flops int, sec float64) float64 { return float64(flops) / sec / 1e9 }
	step := func() error { return ctx.Err() }

	// Rounding: 1 Mi elements through binary16 and bfloat16.
	nround := env.pick(1<<20, 1<<14)
	src, dst := make([]float32, nround), make([]float32, nround)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	out.set("f16.round_gelem_s", float64(nround)/pt.sec(nil, func() { f16.RoundSlice(dst, src) })/1e9)
	out.set("bf16.round_gelem_s", float64(nround)/pt.sec(nil, func() { bf16.RoundSlice(dst, src) })/1e9)

	// float32 level 3 at the RGSQRF split shapes: the trailing update
	// (2048×256 · 256×256) and the projection (256×2048ᵀ · 2048×256).
	M, K := env.pick(2048, 256), env.pick(256, 32)
	tall, sq, tall2 := randM32(rng, M, K), randM32(rng, K, K), randM32(rng, M, K)
	cTall, cSq := dense.New[float32](M, K), dense.New[float32](K, K)
	out.set("blas.gemm_nn_gflops", gflops(2*M*K*K, pt.sec(nil, func() { blas.Gemm(blas.NoTrans, blas.NoTrans, 1, tall, sq, 0, cTall) })))
	out.set("blas.gemm_tn_gflops", gflops(2*K*K*M, pt.sec(nil, func() { blas.Gemm(blas.Trans, blas.NoTrans, 1, tall, tall2, 0, cSq) })))
	out.set("blas.syrk_gflops", gflops(K*K*M, pt.sec(nil, func() { blas.Syrk(blas.Upper, blas.Trans, 1, tall, 0, cSq) })))
	// The BENCH_1 TrsmLeftUpper row: 256×256 upper triangle, 64 right-hand sides.
	nrhs := env.pick(64, 8)
	tri := randM32(rng, K, K)
	for j := 0; j < K; j++ {
		tri.Set(j, j, 4)
	}
	rhs0, rhs := randM32(rng, K, nrhs), dense.New[float32](K, nrhs)
	out.set("blas.trsm_gflops", gflops(K*K*nrhs, pt.sec(
		func() { rhs.CopyFrom(rhs0) },
		func() { blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, tri, rhs) })))
	if err := step(); err != nil {
		return err
	}

	// float64 level 2 at the serve-hit refinement shape (1024×256): what a
	// cache-hit solve spends its iterations in.
	hm, hn := env.pick(1024, 128), env.pick(256, 32)
	a64, r64 := matgen.Normal(rng, hm, hn), matgen.Normal(rng, hn, hn)
	for j := 0; j < hn; j++ {
		r64.Set(j, j, 4*float64(hn))
	}
	xm, xn, xs := make([]float64, hm), make([]float64, hn), make([]float64, hn)
	for i := range xm {
		xm[i] = rng.NormFloat64()
	}
	for i := range xn {
		xn[i] = rng.NormFloat64()
	}
	gbs := func(bytes int, sec float64) float64 { return float64(bytes) / sec / 1e9 }
	out.set("blas.gemv_n_gbs", gbs(8*hm*hn, pt.sec(nil, func() { blas.Gemv(blas.NoTrans, 1, a64, xn, 0, xm) })))
	out.set("blas.gemv_t_gbs", gbs(8*hm*hn, pt.sec(nil, func() { blas.Gemv(blas.Trans, 1, a64, xm, 0, xn) })))
	out.set("blas.trsv_us", 1e6*pt.sec(
		func() { copy(xs, xn) },
		func() { blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, r64, xs) }))

	// The four engines on one cube.
	e := env.pick(512, 64)
	ea, eb, ec := randM32(rng, e, e), randM32(rng, e, e), dense.New[float32](e, e)
	for name, eng := range map[string]tcsim.Engine{
		"tcsim.tc_gflops":   &tcsim.TensorCore{},
		"tcsim.tcec_gflops": &tcsim.TCEC{},
		"tcsim.bf16_gflops": &tcsim.BFloat16{},
		"tcsim.fp32_gflops": &tcsim.FP32{},
	} {
		out.set(name, gflops(2*e*e*e, pt.sec(nil, func() { eng.Gemm(blas.NoTrans, blas.NoTrans, 1, ea, eb, 0, ec) })))
	}
	if err := step(); err != nil {
		return err
	}

	// Panels at the cutoff width.
	pm, pn := env.pick(2048, 256), env.pick(128, 32)
	panelA := dense.ToF32(condMatrix(rng, pm, pn))
	for name, p := range map[string]gram.Panel{
		"gram.caqr_ms":   &gram.CAQRPanel{},
		"gram.cholqr_ms": gram.CholQRPanel{},
		"gram.mgs_ms":    gram.MGSPanel{},
	} {
		var perr error
		sec := pt.sec(nil, func() {
			if _, _, err := p.Factor(panelA); err != nil {
				perr = err
			}
		})
		if perr != nil {
			return fmt.Errorf("probe %s: %w", name, perr)
		}
		out.set(name, sec*1e3)
	}

	// The routing question: serial RGSQRF against Direct TSQR on the
	// serve-cold-tall shape, both at their defaults.
	tm, tn := env.pick(4096, 2048), env.pick(128, 16)
	tallA := dense.ToF32(condMatrix(rng, tm, tn))
	var ferr error
	rgsTall := pt.sec(nil, func() {
		if _, err := rgs.Factor(tallA, rgs.Options{}); err != nil {
			ferr = err
		}
	})
	tsqrTall := pt.sec(nil, func() {
		if _, err := tsqr.Factor(tallA, tsqr.Options{}); err != nil {
			ferr = err
		}
	})
	if ferr != nil {
		return fmt.Errorf("probe tall factorization: %w", ferr)
	}
	out.set("rgs.factor_tall_ms", rgsTall*1e3)
	out.set("tsqr.factor_ms", tsqrTall*1e3)
	out.set("tsqr.vs_rgs_ratio", tsqrTall/rgsTall)
	if err := step(); err != nil {
		return err
	}

	// The lls-dense factorization on one processor — the plain
	// single-threaded baseline — and what the other processors buy.
	dm, dn := env.pick(2048, 256), env.pick(512, 64)
	denseA64 := condMatrix(rng, dm, dn)
	denseA := dense.ToF32(denseA64)
	factorDense := func() {
		if _, err := rgs.Factor(denseA, rgs.Options{}); err != nil {
			ferr = err
		}
	}
	all := pt.sec(nil, factorDense)
	prev := runtime.GOMAXPROCS(1)
	one := pt.sec(nil, factorDense)
	runtime.GOMAXPROCS(prev)
	if ferr != nil {
		return fmt.Errorf("probe dense factorization: %w", ferr)
	}
	out.set("rgs.factor_1p_ms", one*1e3)
	out.set("rgs.par_speedup", one/all)

	// The float64 Householder reference every accuracy test compares with.
	work := dense.New[float64](dm, dn)
	out.set("house.geqrf64_ms", 1e3*pt.sec(
		func() { work.CopyFrom(denseA64) },
		func() { house.Geqrf(work, 0) }))
	if err := step(); err != nil {
		return err
	}

	// Incremental update at the serve-update-mix shape, then the drift of Q
	// after as many append/remove cycles as one series sees in a run.
	um, un, uk := env.pick(2048, 256), env.pick(128, 16), env.pick(16, 4)
	updA64 := condMatrix(rng, um, un)
	updA := dense.ToF32(updA64)
	block := dense.ToF32(normalMatrix(rng, uk, un, elementRMS(updA64)))
	f0, err := tcqr.Factorize(updA, tcqr.Config{})
	if err != nil {
		return fmt.Errorf("probe update: %w", err)
	}
	var up *tcqr.Factorization
	out.set("tcqr.update_append_ms", 1e3*pt.sec(nil, func() {
		if up, err = tcqr.UpdateAppendRows(f0, block, tcqr.Config{}); err != nil {
			ferr = err
		}
	}))
	if ferr != nil {
		return fmt.Errorf("probe update append: %w", ferr)
	}
	out.set("tcqr.update_remove_ms", 1e3*pt.sec(nil, func() {
		if _, err := tcqr.UpdateRemoveRows(up, uk, tcqr.Config{}); err != nil {
			ferr = err
		}
	}))
	if ferr != nil {
		return fmt.Errorf("probe update remove: %w", ferr)
	}
	f := f0
	for c := 0; c < env.pick(188, 8); c++ {
		if f, err = tcqr.UpdateAppendRows(f, block, tcqr.Config{}); err == nil {
			f, err = tcqr.UpdateRemoveRows(f, uk, tcqr.Config{})
		}
		if err != nil {
			return fmt.Errorf("probe update chain, cycle %d: %w", c, err)
		}
		if c%16 == 0 {
			if err := step(); err != nil {
				return err
			}
		}
	}
	out.set("tcqr.update_chain_ortho_err", accuracy.OrthoError(f.Q))

	// What a cold request pays before any factorization: the content hash
	// of the narrowed matrix and the frame codec, on the serve-cold-tall body.
	bytes32 := 4 * tm * tn
	var h uint64
	out.set("dense.hash_gbs", gbs(bytes32, pt.sec(nil, func() { h += tallA.Hash64() })))
	sink += float64(h & 1)
	body := condMatrix(rng, tm, tn)
	b := normalVec(rng, tm)
	var frame []byte
	encSec := pt.sec(nil, func() {
		if frame, err = solveFrame(frame[:0], "", body, b); err != nil {
			ferr = err
		}
	})
	if ferr != nil {
		return fmt.Errorf("probe frame encode: %w", ferr)
	}
	out.set("wirefmt.encode_gbs", gbs(len(frame), encSec))
	var scratch [wirefmt.MaxSections]wirefmt.Section
	out.set("wirefmt.decode_gbs", gbs(len(frame), pt.sec(nil, func() {
		secs, err := wirefmt.Decode(frame, scratch[:0])
		if err != nil {
			ferr = err
			return
		}
		for i := range secs {
			if v := secs[i].Float64s(); len(v) > 0 {
				sink += v[0]
			}
		}
	})))
	if ferr != nil {
		return fmt.Errorf("probe frame decode: %w", ferr)
	}

	out.set("host.calib_gflops", gflops(2*calibN*calibN*calibN, pt.sec(nil, calibrate)))
	out.set("host.build_s", env.buildS)
	return nil
}

// calibN is the order of the calibration product.
const calibN = 192

var calibA, calibB, calibC [calibN * calibN]float32

// calibrate is a plain scalar float32 matrix product that shares no code
// with the library: the host's speed, so that numbers from two hosts can be
// told apart from numbers from two commits.
func calibrate() {
	for i := range calibA {
		calibA[i], calibB[i], calibC[i] = float32(i%7)-3, float32(i%5)-2, 0
	}
	for i := 0; i < calibN; i++ {
		for k := 0; k < calibN; k++ {
			aik := calibA[i*calibN+k]
			row := calibB[k*calibN : (k+1)*calibN]
			dst := calibC[i*calibN : (i+1)*calibN]
			for j, v := range row {
				dst[j] += aik * v
			}
		}
	}
	sink += float64(calibC[calibN+1])
}
