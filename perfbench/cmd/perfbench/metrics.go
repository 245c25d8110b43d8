package main

// metricDef declares one reported metric; the lists below must match
// BENCHMARK.json at the repository root (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees, reported by every workload
// with tracing off. Each workload defines its unit of work:
//
//	apply-deep     one System.Apply call
//	batch-churn    one op of a pipelined window (latency: the window,
//	               Start to Wait)
//	serve-open     one request at the reference rate, timed from when it
//	               was due (ops_per_s: requests served OK within the
//	               latency limit per second of the daemon's CPU time)
//	paper-figures  one regeneration of Fig. 10 and Fig. 12
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p99_ms", "ms", "lower"},
	{"mem_peak_mb", "MB", "lower"},
}

// perLayer is what the traced run reports. Figures of a module the
// workload never calls read 0.
var perLayer = []metricDef{
	// Workload-specific figures, from the untraced blocks of the run.
	{"sim_ns_per_op", "ns", "lower"},
	{"sim_pj_per_bit", "pJ/bit", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"failed_frac", "frac", "lower"},
	{"figures_s", "s", "lower"},
	{"serve.max_rate_rps", "1/s", "higher"},
	{"serve.shed_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},

	// Kernels against a same-run copy() roofline (perfprobe).
	{"ref.copy_gbps", "GB/s", "higher"},
	{"sense.or_deep_gbps", "GB/s", "higher"},
	{"sense.or2_gbps", "GB/s", "higher"},
	{"bitvec.popcount_gbps", "GB/s", "higher"},
	{"memarch.write_row_ns", "ns", "lower"},
	{"memarch.read_row_ns", "ns", "lower"},

	// Spans around the public System calls.
	{"pinatubo.host.write_us", "us", "lower"},
	{"pinatubo.host.read_us", "us", "lower"},
	{"pinatubo.apply.hit_us", "us", "lower"},
	{"pinatubo.apply.miss_us", "us", "lower"},
	{"cmdstream.hit_rate", "frac", "higher"},
	{"cmdstream.miss_per_op", "count", "lower"},
	{"pinatubo.window.add_us", "us", "lower"},
	{"pinatubo.window.start_us", "us", "lower"},
	{"pinatubo.window.exec_us", "us", "lower"},
	{"pinatubo.window.merge_us", "us", "lower"},
	{"pinatubo.window.shards", "count", "higher"},
	{"pinatubo.window.ops", "count", "higher"},
	{"pinatubo.pool.reuse_rate", "frac", "higher"},
	{"pinatubo.plan_ms", "ms", "lower"},

	// The daemon: its codec (perfprobe), its final stats, the load
	// generator's own health.
	{"serve.encode_us", "us", "lower"},
	{"serve.decode_us", "us", "lower"},
	{"serve.windows", "count", "higher"},
	{"serve.ops_per_window", "count", "higher"},
	{"serve.shed", "count", "lower"},
	{"serve.cache_hit_rate", "frac", "higher"},
	{"serve.sim_p99_ns", "ns", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"loadgen.sent", "count", "higher"},

	// The figure pipeline's stages (perfprobe).
	{"figures.alltraces_s", "s", "lower"},
	{"figures.engines_s", "s", "lower"},
	{"figures.simd_run_s", "s", "lower"},
	{"figures.pim_run_s", "s", "lower"},

	// Self time per module as a share of the workload's traced time.
	{"selftime.pinatubo_frac", "frac", "lower"},
	{"selftime.pinatubod_frac", "frac", "lower"},
	{"selftime.loadgen_frac", "frac", "lower"},
	{"selftime.oracle_frac", "frac", "lower"},
	{"selftime.figures_frac", "frac", "lower"},
}
