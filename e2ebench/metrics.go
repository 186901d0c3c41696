package main

// The metric tables. BENCHMARK.json declares the same names, units and
// directions (the smoke test holds the two in step); the moves column is
// the prediction each per-layer metric carries: the end-to-end metric it
// should move, and on which workload.

type metricDecl struct {
	name, unit, better string
	moves              string // per-layer only: "<end-to-end metric> on <workload>"
}

// endToEnd are the user-visible metrics of an untraced run. Every
// workload emits every one of them.
var endToEnd = []metricDecl{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "nets_per_s", unit: "1/s", better: "higher"},
	{name: "net_latency_p50_s", unit: "s", better: "lower"},
	{name: "net_latency_p90_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
}

// perLayer are the traced run's metrics. Layers a workload does not
// exercise report 0.
var perLayer = []metricDecl{
	{"workload.decode_s", "s", "lower", "setup_s on all workloads"},

	{"engine.tables_build_s", "s", "lower", "setup_s on served_prechar"},
	{"engine.cache.tables.hit_ratio", "ratio", "higher", "net_latency_p90_s on served_prechar"},
	{"engine.cache.char_full.hit_ratio", "ratio", "higher", "nets_per_s on served_prechar (stays ~0 on batch_exhaustive)"},
	{"engine.cache.char_rough.hit_ratio", "ratio", "higher", "nets_per_s on served_prechar"},
	{"engine.cache.holdres.hit_ratio", "ratio", "higher", "nets_per_s on served_prechar (stays ~0 on batch_exhaustive)"},

	{"delaynoise.characterize_s", "s", "lower", "nets_per_s, net_latency_p50_s on served_prechar"},
	{"delaynoise.reduce_s", "s", "lower", "nets_per_s on all workloads"},
	{"delaynoise.simulate_s", "s", "lower", "nets_per_s on all workloads"},
	{"delaynoise.align_s", "s", "lower", "nets_per_s on batch_exhaustive"},
	{"delaynoise.holdres_s", "s", "lower", "nets_per_s, net_latency_p50_s on served_prechar"},
	{"delaynoise.report_s", "s", "lower", "nets_per_s on all workloads"},
	{"delaynoise.characterize_share", "ratio", "lower", "nets_per_s on served_prechar"},
	{"delaynoise.reduce_share", "ratio", "lower", "nets_per_s on all workloads"},
	{"delaynoise.simulate_share", "ratio", "lower", "nets_per_s on all workloads"},
	{"delaynoise.align_share", "ratio", "lower", "nets_per_s on batch_exhaustive"},
	{"delaynoise.holdres_share", "ratio", "lower", "nets_per_s on served_prechar"},
	{"delaynoise.report_share", "ratio", "lower", "nets_per_s on all workloads"},
	{"delaynoise.unattributed_share", "ratio", "lower", "nets_per_s on served_prechar"},
	{"delaynoise.linear_sims_per_net", "count", "lower", "nets_per_s on all workloads"},
	{"delaynoise.golden_err_ps", "ps", "lower", "accuracy beside nets_per_s on batch_exhaustive and served_prechar"},

	{"align.receiver_sims_per_net", "count", "lower", "nets_per_s on batch_exhaustive (no change on served_prechar)"},
	{"align.search_s_mean", "s", "lower", "nets_per_s on batch_exhaustive (no change on served_prechar)"},

	{"clarinet.net_s_mean", "s", "lower", "nets_per_s on batch_exhaustive"},
	{"clarinet.worker_busy_share", "ratio", "higher", "nets_per_s on batch_exhaustive"},
	{"clarinet.drain_tail_s", "s", "lower", "nets_per_s on batch_exhaustive"},
	{"clarinet.rescue_attempts", "count", "lower", "failed count on all workloads"},
	{"clarinet.nets_failed", "count", "lower", "failed count on all workloads"},

	{"pathnoise.stage_s_mean", "s", "lower", "nets_per_s on path_dag"},
	{"pathnoise.worker_busy_share", "ratio", "higher", "nets_per_s on path_dag"},
	{"pathnoise.engine_share", "ratio", "higher", "nets_per_s on path_dag"},
	{"pathnoise.iterations_per_path", "count", "lower", "nets_per_s on path_dag"},

	{"noised.busy_share.max", "ratio", "higher", "nets_per_s on served_prechar"},
	{"noised.busy_share.min", "ratio", "higher", "nets_per_s on served_prechar"},
	{"noised.imbalance", "ratio", "lower", "net_latency_p90_s on served_prechar"},
	{"noised.shards", "count", "lower", "failed count on served_prechar"},
	{"noised.rejected", "count", "lower", "failed count on served_prechar"},

	{"noisegw.shard_latency_p50_s", "s", "lower", "net_latency_p90_s on served_prechar"},
	{"noisegw.shard_latency_p90_s", "s", "lower", "net_latency_p90_s on served_prechar"},
	{"noisegw.shards_per_request", "count", "lower", "net_latency_p90_s on served_prechar"},
	{"noisegw.reshards", "count", "lower", "failed count and net_latency_p90_s on served_prechar"},
	{"noisegw.hedges", "count", "lower", "failed count and net_latency_p90_s on served_prechar"},
	{"noisegw.shard_shed", "count", "lower", "failed count and net_latency_p90_s on served_prechar"},

	{"client.first_record_s_p50", "s", "lower", "net_latency_p50_s on served_prechar"},
	{"client.wire_bytes_per_net", "B", "lower", "net_latency_p50_s on served_prechar"},

	{"runtime.alloc_mb_per_net", "MiB", "lower", "peak_rss_mb and nets_per_s on all workloads"},
	{"runtime.gc_cycles", "count", "lower", "peak_rss_mb and nets_per_s on all workloads"},
	{"runtime.cpu_share", "ratio", "higher", "nets_per_s on all workloads (idle cores cap throughput)"},

	{"trace.nets_per_s", "1/s", "higher", "tracing overhead: nets_per_s of the untraced run minus this"},
}
