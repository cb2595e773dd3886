package main

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result for one workload run, the last line of
// its standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec names a metric, its unit and which direction is better. The
// lists below are the source of truth; BENCHMARK.json repeats them, with
// the end-to-end bounds, and the smoke test checks that the two agree.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the gated metrics a user of the analyzer sees, reported by
// every untraced run. Only metrics that repeat within their bound on every
// workload are gated; throughput and latency do not on a shared 2-vCPU
// machine, so they are the ungated loadgen.* metrics of a traced run, and
// neither does the peak resident set, process.peak_rss_mib.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"live_heap_mib", "MiB", "lower"},
}

// perLayer are the single-layer metrics of a traced run. A workload in
// which a layer does no work reports 0 for it.
var perLayer = []metricSpec{
	{"vm.reset_us", "us", "lower"},
	{"vm.plain_ns_per_step", "ns/step", "lower"},
	{"taint.execute_ns_per_step", "ns/step", "lower"},
	{"taint.overhead_x", "x", "lower"},
	{"taint.build_ms", "ms", "lower"},
	{"flowgraph.edges", "count", "lower"},
	{"flowgraph.peak_live_edges", "count", "lower"},
	{"maxflow.solve_ms", "ms", "lower"},
	{"maxflow.solve_ns_per_edge", "ns/edge", "lower"},
	{"merge.merge_ms", "ms", "lower"},
	{"engine.report_ms", "ms", "lower"},
	{"engine.self_us", "us", "lower"},
	{"engine.sessions_created", "count", "lower"},
	{"engine.sessions_recycled", "count", "lower"},
	{"engine.allocs_per_op", "count", "lower"},
	{"engine.alloc_bytes_per_op", "B", "lower"},
	{"process.gc_cpu_frac", "ratio", "lower"},
	{"process.peak_rss_mib", "MiB", "lower"},
	{"static.bound_us", "us", "lower"},
	{"stagecache.result_hit_ratio", "ratio", "higher"},
	{"stagecache.skeleton_hit_ratio", "ratio", "higher"},
	{"stagecache.evictions", "count", "lower"},
	{"stagecache.lookup_us", "us", "lower"},
	{"ledger.charge_us", "us", "lower"},
	{"ledger.settle_us", "us", "lower"},
	{"ledger.syncs_per_req", "count", "lower"},
	{"ledger.appends_per_req", "count", "lower"},
	{"ledger.replay_ms", "ms", "lower"},
	{"serve.self_us", "us", "lower"},
	{"serve.queue_wait_us", "us", "lower"},
	{"serve.fast_path_frac", "ratio", "higher"},
	{"serve.retried", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.handler_us", "us", "lower"},
	{"serve.response_bytes", "B", "lower"},
	{"serve.max_rps", "req/s", "higher"},
	{"fleet.coord_self_us", "us", "lower"},
	{"fleet.hop_us", "us", "lower"},
	{"fleet.hedges_per_req", "ratio", "lower"},
	{"fleet.wasted_hedge_frac", "ratio", "lower"},
	{"fleet.shard_skew", "ratio", "lower"},
	{"fleet.batch_p50_ms", "ms", "lower"},
	{"fleet.batch_self_ms", "ms", "lower"},
	{"fleet.steals", "count", "lower"},
	{"loadgen.ops_per_s", "op/s", "higher"},
	{"loadgen.latency_p50_ms", "ms", "lower"},
	{"loadgen.latency_p90_ms", "ms", "lower"},
	{"loadgen.latency_p99_ms", "ms", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.accounted_frac", "ratio", "higher"},
}

// withUnits attaches units to raw values, keeping only the listed metrics
// and reporting 0 for any the run did not produce.
func withUnits(specs []metricSpec, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.Name] = metric{Value: values[s.Name], Unit: s.Unit}
	}
	return out
}
