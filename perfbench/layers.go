package main

// perLayer lists every per-layer metric of a traced run, in the order of
// the layers. A workload that does not exercise a layer reports 0 for it.
// Times of the sim, core, source, store and repro layers are per simulator
// run: per pass on paper-pipeline, per input build on the other workloads.
var perLayer = []struct{ name, unit string }{
	// sim: nodesim, workload, failures, facility and scheduler run inside
	// sim.New and Run and are summed into these until the program has
	// spans of its own.
	{"sim.new_s", "s"},
	{"sim.run_self_s", "s"},
	{"sim.node_windows_per_s", "1/s"},
	{"sim.windows", "count"},
	{"sim.jobs_placed", "count"},
	{"sim.failures_injected", "count"},
	// core
	{"core.collector_s", "s"},
	{"core.variability_s", "s"},
	{"core.node_writer_s", "s"},
	{"core.write_datasets_s", "s"},
	{"core.analysis_s", "s"},
	{"core.edges_s", "s"},
	{"core.swings_s", "s"},
	{"core.bands_s", "s"},
	{"core.earlywarning_s", "s"},
	{"core.overcooling_s", "s"},
	{"core.validation_s", "s"},
	{"core.failure_composition_s", "s"},
	{"core.failure_correlation_s", "s"},
	{"core.summary_s", "s"},
	{"repro.reports_s", "s"},
	// source / store
	{"source.open_s", "s"},
	{"store.bytes_written", "bytes"},
	{"store.node_bytes_written", "bytes"},
	{"store.write_mb_per_s", "MB/s"},
	{"store.cache_hits", "count"},
	{"store.cache_misses", "count"},
	// query
	{"query.http.handler_ms_p50", "ms"},
	{"query.http.handler_ms_p99", "ms"},
	{"query.http.transport_ms_p50", "ms"},
	{"query.range_ms_p50", "ms"},
	{"query.rollup_ms_p50", "ms"},
	{"query.analysis_ms_p50", "ms"},
	{"query.analysis_ms_p99", "ms"},
	{"query.response_bytes_mean", "bytes"},
	{"query.cache_hits", "count"},
	{"query.cache_misses", "count"},
	{"query.cache_evictions", "count"},
	{"query.cache_hit_ratio", "ratio"},
	{"query.preagg_ratio", "ratio"},
	{"query.iter_scans", "count"},
	{"query.days_scanned", "count"},
	{"query.days_pruned", "count"},
	{"query.rows_scanned", "count"},
	{"query.bytes_decoded", "bytes"},
	{"query.decode_mb_per_s", "MB/s"},
	{"query.working_set_ratio", "ratio"},
	{"query.rejected", "count"},
	{"query.errors", "count"},
	// telemetry / stream
	{"telemetry.decode_us_p50", "us"},
	{"telemetry.frame_bytes_mean", "bytes"},
	{"stream.ingest_us_p50", "us"},
	{"stream.ingest_us_p99", "us"},
	{"stream.queue_fill_max", "ratio"},
	{"stream.watermark_lag_windows_max", "windows"},
	{"stream.frames", "count"},
	{"stream.channel_windows", "count"},
	{"stream.dropped", "count"},
	{"stream.late", "count"},
	{"stream.merge_late", "count"},
	{"stream.rejected", "count"},
	{"stream.close_drain_ms", "ms"},
	// runtime
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MiB"},
	// bench
	{"bench.send_late_ms_p99", "ms"},
	{"bench.live_capacity_per_s", "1/s"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.host_steal_ratio", "ratio"},
	{"failed_ratio", "ratio"},
}
