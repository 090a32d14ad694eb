package main

// The names below are the benchmark's contract: BENCHMARK.json repeats them
// and a test holds the two together.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"rpc_small", "smallest packet: socket, codec and queue hop dominate a ~1 us kernel, so per-request handling shows and a kernel change must not"},
	{"scan_under_ingest", "all-nodes top-5 over 50k nodes under 1,500 observes/s: snapshot stitch, cosine scan and heap are the round trip, the codec is noise"},
	{"ingest_heavy", "the same store written flat out while a rare all-nodes probe pays for every dirty shard: a scan gain bought with a dearer observe shows"},
	{"agg_closest", "the paper's query, 240 explicit candidates for one of 1M prefix-aggregated clients: the second vector representation at the largest request"},
	{"gossip_replicate", "3 daemons over the in-memory mesh replicate 500 fresh nodes per cycle: the delta path shares only crp with the request path"},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is measured with tracing off; every workload reports every one.
// Bound is the share of the baseline's median by which a metric may worsen
// before -compare calls it a regression.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", higher, 0.25},
	{"lat_p50_us", "us", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.05},
	{"wire_bytes_per_op", "B", lower, 0.01},
	{"heap_mb", "MB", lower, 0.05},
	{"setup_s", "s", lower, 0.25},
}

// perLayer comes from a traced run; a metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{"transport.residual_us", "us", lower, 0},
	{"transport.req_bytes", "B", lower, 0},
	{"transport.reply_bytes", "B", lower, 0},

	{"crpdaemon.decode_us", "us", lower, 0},
	{"crpdaemon.decode_allocs", "count", lower, 0},
	{"crpdaemon.encode_us", "us", lower, 0},
	{"crpdaemon.encode_allocs", "count", lower, 0},
	{"crpdaemon.dispatch_self_us", "us", lower, 0},
	{"crpdaemon.handle_us", "us", lower, 0},
	{"crpdaemon.handle_allocs", "count", lower, 0},
	{"crpdaemon.decode_us_json", "us", lower, 0},
	{"crpdaemon.encode_us_json", "us", lower, 0},
	{"crpdaemon.rejected", "count", lower, 0},
	{"crpdaemon.timeouts", "count", lower, 0},
	{"crpdaemon.handler_p50_us", "us", lower, 0},

	{"crp.query_us", "us", lower, 0},
	{"crp.query_allocs", "count", lower, 0},
	{"crp.snapshot_hit_ratio", "ratio", higher, 0},
	{"crp.shard_rebuilds_per_query", "count", lower, 0},
	{"crp.observe_us", "us", lower, 0},
	{"crp.observe_allocs", "count", lower, 0},
	{"crp.heap_bytes_per_node", "B", lower, 0},
	{"crp.agg_groups", "count", lower, 0},
	{"crp.agg_demoted", "count", lower, 0},
	{"crp.agg_state_bytes", "B", lower, 0},
	{"crp.export_delta_us", "us", lower, 0},
	{"crp.apply_delta_us", "us", lower, 0},
	{"crp.shard_digests_us", "us", lower, 0},

	{"peering.tick_us", "us", lower, 0},
	{"peering.handle_datagram_us", "us", lower, 0},
	{"peering.rounds_per_cycle", "count", lower, 0},
	{"peering.datagrams_per_cycle", "count", lower, 0},
	{"peering.deltas_sent_per_node", "count", lower, 0},
	{"peering.useful_delta_ratio", "ratio", higher, 0},
	{"peering.pulls", "count", lower, 0},
	{"peering.bad_msgs", "count", lower, 0},
	{"peering.send_errors", "count", lower, 0},

	{"runtime.gc_cycles", "count", lower, 0},
	{"runtime.gc_pause_ms", "ms", lower, 0},
	{"runtime.cpu_s", "s", lower, 0},
	{"runtime.heap_peak_mb", "MB", lower, 0},

	{"loadgen.lat_p90_us", "us", lower, 0},
	{"loadgen.lat_p99_us", "us", lower, 0},
	{"loadgen.samples", "count", higher, 0},
	{"loadgen.late_p99_us", "us", lower, 0},
	{"loadgen.stream_hash", "hash", higher, 0},
	{"loadgen.fail_share", "ratio", lower, 0},
	{"loadgen.bg_ops_per_s", "1/s", higher, 0},
	{"loadgen.bg_lat_p50_us", "us", lower, 0},

	{"trace.split_residual_pct", "%", lower, 0},
	{"trace.overhead_pct", "%", lower, 0},
}

// zeroed returns a metric map holding every name of defs at 0, so a workload
// fills in what applies to it and still reports the whole list.
func zeroed(defs []metricDef) map[string]float64 {
	m := make(map[string]float64, len(defs))
	for _, d := range defs {
		m[d.Name] = 0
	}
	return m
}
