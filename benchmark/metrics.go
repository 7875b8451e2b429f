package main

// The metric names below are the benchmark's vocabulary; BENCHMARK.json
// lists the same names with the regression bound of each end-to-end metric
// (a test keeps the two in step). Later changes cite these names, so they
// are never renamed, only added to.

type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported by every workload
// from the untraced pass. Operations that fail are reported beside them as
// attempted/failed (fail_ratio) rather than as a bounded metric, because the
// value at the seed commit is 0 and a share of 0 bounds nothing: any failed
// operation makes the run incorrect.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
	{"solve_digits", "digits"},
}

// perLayer is what single layers report, from the traced pass and the
// kernel probe. Layers are the repository's packages; the prefix of a name
// is the package that owns the number.
var perLayer = []metricDef{
	// lls-dense, from spans around the calls into each layer. *_ms are
	// medians per operation; self times are a span minus its children.
	{"dense.narrow_ms", "ms"},
	{"rgs.factor_ms", "ms"},
	{"rgs.self_ms", "ms"},
	{"tcsim.gemm_ms", "ms"},
	{"tcsim.gemm_calls", "1/op"},
	{"tcsim.gemm_gflops", "GFLOP/s"},
	{"gram.panel_ms", "ms"},
	{"gram.panel_calls", "1/op"},
	{"lls.refine_ms", "ms"},
	{"lls.iters", "count"},
	{"tcqr.solve_self_ms", "ms"},
	{"rgs.backward_err", "ratio"},
	{"rgs.ortho_err", "ratio"},
	{"rgs.allocs_per_factor", "count"},

	// Served workloads, from Server-Timing per response and the /statz and
	// /metrics deltas over the traced rounds.
	{"serve.queue_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.factorize_ms", "ms"},
	{"serve.update_append_ms", "ms"},
	{"serve.update_remove_ms", "ms"},
	{"serve.other_ms", "ms"},
	{"serve.coalesce_batch_mean", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions_per_op", "1/op"},
	{"serve.cache_retired", "1/op"},
	{"serve.spill_writes", "1/op"},
	{"serve.spill_dropped", "1/op"},
	{"serve.spill_mb", "MB"},
	{"tsqr.block_ms", "ms"},
	{"tsqr.reduce_ms", "ms"},
	{"tsqr.recover_ms", "ms"},
	{"spill.rewarm_s", "s"},
	{"spill.rewarm_entries", "count"},

	// Every workload.
	{"client.op_p90_ms", "ms"},
	{"client.op_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},

	// Kernel probe: direct calls at the shapes the workloads generate.
	{"f16.round_gelem_s", "Gelem/s"},
	{"bf16.round_gelem_s", "Gelem/s"},
	{"blas.gemm_nn_gflops", "GFLOP/s"},
	{"blas.gemm_tn_gflops", "GFLOP/s"},
	{"blas.syrk_gflops", "GFLOP/s"},
	{"blas.trsm_gflops", "GFLOP/s"},
	{"blas.gemv_n_gbs", "GB/s"},
	{"blas.gemv_t_gbs", "GB/s"},
	{"blas.trsv_us", "us"},
	{"tcsim.tc_gflops", "GFLOP/s"},
	{"tcsim.tcec_gflops", "GFLOP/s"},
	{"tcsim.bf16_gflops", "GFLOP/s"},
	{"tcsim.fp32_gflops", "GFLOP/s"},
	{"gram.caqr_ms", "ms"},
	{"gram.cholqr_ms", "ms"},
	{"gram.mgs_ms", "ms"},
	{"rgs.factor_tall_ms", "ms"},
	{"tsqr.factor_ms", "ms"},
	{"tsqr.vs_rgs_ratio", "ratio"},
	{"rgs.factor_1p_ms", "ms"},
	{"rgs.par_speedup", "ratio"},
	{"house.geqrf64_ms", "ms"},
	{"tcqr.update_append_ms", "ms"},
	{"tcqr.update_remove_ms", "ms"},
	{"tcqr.update_chain_ortho_err", "ratio"},
	{"dense.hash_gbs", "GB/s"},
	{"wirefmt.encode_gbs", "GB/s"},
	{"wirefmt.decode_gbs", "GB/s"},
	{"host.stream_gbs", "GB/s"},
	{"host.calib_gflops", "GFLOP/s"},
	{"host.build_s", "s"},
}

var (
	endToEndUnits = unitsOf(endToEnd)
	perLayerUnits = unitsOf(perLayer)
)

func unitsOf(defs []metricDef) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}
