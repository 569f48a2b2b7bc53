package main

import "time"

// The names in this file are the ledger's contract: BENCHMARK.json
// repeats them (TestSpecMatchesBenchmarkJSON keeps the two equal) and
// later issues cite them, so nothing here is renamed after it lands.

// Workload names, in the order BENCHMARK.json lists them.
const (
	wPipeline = "pipeline_steady"
	wIngest   = "ingest_saturate"
	wQueryMix = "query_mix"
	wCluster  = "cluster_edge"
)

var workloadNames = []string{wPipeline, wIngest, wQueryMix, wCluster}

// metricSpec describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists the metrics a user of the system would see. Every
// workload reports every one of them (the driver's contract), so each has
// one definition that holds on all four; README.md says what drives it on
// each workload. A bound has to hold two things the driver checks on runs
// of one commit: the spread of ten runs (quartile distance over median),
// and the distance between the medians of two sets of ten. It is twice
// the widest spread the metric showed on any workload in four sets of ten
// runs of the seed commit, or the largest distance between two of its
// sets' medians if that is more, rounded up to the next 5 %, at least the
// issue's 10 % and at most the contract's 25 %. On the calibration machine
// that is the cap for every metric but one: README.md, "Calibration
// record", has the numbers.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"result_latency_p50_ms", "ms", "lower", 0.25},
	{"within_limit_ratio", "ratio", "higher", 0.10},
	{"throughput_eps", "1/s", "higher", 0.25},
	{"query_latency_p50_ms", "ms", "lower", 0.25},
	{"history_query_p50_ms", "ms", "lower", 0.25},
	{"deploy_ms_p50", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced run; the prefix
// is the module the number belongs to.
var perLayer = []metricSpec{
	// The two tail latencies the issue listed end to end. On the
	// calibration machine their spread between runs of one commit is 25 to
	// 80 %, beyond any bound the contract allows, so they are reported here
	// (in both kinds of run) under the names later issues may cite.
	{"result_latency_p95_ms", "ms", "lower", 0},
	{"query_latency_p95_ms", "ms", "lower", 0},
	// recovery_ms likewise: half of a reopen is the disk's time, which
	// nothing here can correct for, and its spread reaches 20 %.
	{"recovery_ms", "ms", "lower", 0},

	{"loadgen.offered_eps", "1/s", "higher", 0},
	{"loadgen.achieved_eps", "1/s", "higher", 0},
	{"loadgen.lag_p95_ms", "ms", "lower", 0},
	{"loadgen.client_lag_p50_ms", "ms", "lower", 0},

	{"wrappers.mote_produce_ns", "ns", "lower", 0},
	{"wrappers.camera_produce_ns", "ns", "lower", 0},

	{"stream.encode_ns_per_elem", "ns", "lower", 0},
	{"stream.decode_ns_per_elem", "ns", "lower", 0},
	{"stream.encoded_bytes_per_elem", "bytes", "lower", 0},
	{"stream.encode_ns_per_elem_16k", "ns", "lower", 0},
	{"stream.decode_ns_per_elem_16k", "ns", "lower", 0},
	{"stream.encoded_bytes_per_elem_16k", "bytes", "lower", 0},

	{"quality.chain_ns_per_elem", "ns", "lower", 0},
	{"quality.chain_batch_ns_per_elem", "ns", "lower", 0},

	{"storage.insert_ns", "ns", "lower", 0},
	{"storage.insert_batch_ns_per_elem", "ns", "lower", 0},
	{"storage.flush_ns", "ns", "lower", 0},
	{"storage.snapshot_ns", "ns", "lower", 0},
	{"storage.checkpoint_ms", "ms", "lower", 0},
	{"storage.fs_busy_share", "ratio", "lower", 0},
	{"storage.fs_writes_per_kelem", "count", "lower", 0},
	{"storage.fs_syncs_per_kelem", "count", "lower", 0},
	{"storage.fs_bytes_per_user_byte", "ratio", "lower", 0},
	{"storage.lane_merges", "count", "higher", 0},
	{"storage.lane_solo_collapses", "count", "lower", 0},
	{"storage.log_errors", "count", "lower", 0},
	{"storage.degraded_appends", "count", "lower", 0},
	{"storage.setup_fs_ms", "ms", "lower", 0},
	{"storage.reopen_ms", "ms", "lower", 0},
	{"storage.wal_replayed_rows", "count", "lower", 0},
	{"storage.timed_range_us_per_krow", "us", "lower", 0},
	{"storage.pool_hit_ratio", "ratio", "higher", 0},
	{"storage.pages_read_per_range_query", "count", "lower", 0},

	{"sqlparser.parse_ns_per_stmt", "ns", "lower", 0},

	{"sqlengine.compile_ns_per_stmt", "ns", "lower", 0},
	{"sqlengine.exec_interpreted_ns", "ns", "lower", 0},
	{"sqlengine.exec_bound_ns", "ns", "lower", 0},
	{"sqlengine.inc_update_ns", "ns", "lower", 0},
	{"sqlengine.grouped_inc_update_ns", "ns", "lower", 0},
	{"sqlengine.stmt_cache_hit_ratio", "ratio", "higher", 0},
	{"sqlengine.partial_exec_ns", "ns", "lower", 0},
	{"sqlengine.partial_merge_ns", "ns", "lower", 0},

	{"core.ingest_ns_per_elem", "ns", "lower", 0},
	{"core.trigger_to_delivery_ms_p50", "ms", "lower", 0},
	{"core.tier_hop_us_p50", "us", "lower", 0},
	{"core.sweep_ms_p50", "ms", "lower", 0},
	{"core.pulse_sync_ns_per_elem", "ns", "lower", 0},
	{"core.tier_sync_ns_per_elem", "ns", "lower", 0},
	{"core.deploy_ms", "ms", "lower", 0},
	{"core.undeploy_ms", "ms", "lower", 0},
	{"core.triggers", "count", "higher", 0},
	{"core.coalesced", "count", "lower", 0},
	{"core.dropped", "count", "lower", 0},
	{"core.outputs_per_trigger", "ratio", "higher", 0},
	{"core.repo_dedup_ratio", "ratio", "higher", 0},
	{"core.result_cache_hit_ratio", "ratio", "higher", 0},

	{"notify.publish_ns", "ns", "lower", 0},
	{"notify.delivery_lag_us_p50", "us", "lower", 0},
	{"notify.queue_dropped", "count", "lower", 0},

	{"web.handler_ms_p50", "ms", "lower", 0},
	{"web.http_overhead_ms_p50", "ms", "lower", 0},
	{"web.response_bytes_per_query", "bytes", "lower", 0},
	{"web.sse_lag_ms_p50", "ms", "lower", 0},
	{"web.sse_delivered_ratio", "ratio", "higher", 0},

	{"p2p.stream_poll_ms_p50", "ms", "lower", 0},
	{"p2p.edge_batch_elems_p50", "count", "higher", 0},
	{"p2p.roundtrips_per_kelem", "count", "lower", 0},
	{"p2p.wire_bytes_per_elem", "bytes", "lower", 0},
	{"p2p.partial_bytes_per_query", "bytes", "lower", 0},
	{"p2p.union_bytes_per_query", "bytes", "lower", 0},
	{"p2p.routed_bytes_per_result", "bytes", "lower", 0},
	{"p2p.resyncs", "count", "lower", 0},
	{"p2p.dedup_dropped", "count", "lower", 0},

	{"proc.alloc_bytes_per_op", "bytes", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.gc_cpu_share", "ratio", "lower", 0},
	{"proc.gc_pause_ms_total", "ms", "lower", 0},
	{"proc.goroutines_peak", "count", "lower", 0},

	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.attributed_share", "ratio", "higher", 0},
}

// calibration holds one workload's frozen load constants. They were
// measured once on the seed commit (README.md, "Calibration record")
// and are constants from then on: a later change is compared at the
// same offered load, never at a load re-derived from its own speed.
type calibration struct {
	// FeedRate is the open-loop rate of each mote feed in elements per
	// second (0 = the feeds are closed-loop). Camera feeds run at 1/50
	// of it.
	FeedRate int
	// Limit is the result-latency limit: the 1-2-5 value nearest ten
	// times the seed's median result latency.
	Limit time.Duration
	// QueryRate is the rate of the paced ad-hoc query client in
	// statements per second (0 = the clients are closed-loop).
	QueryRate int
	// HistorySpanMs is the width of the workload's TIMED-range queries,
	// chosen so a range holds about a thousand rows.
	HistorySpanMs int64
	// ResultOnTimer says the workload's result latency is set by a timer of
	// the program's, which does not stretch when the processor slows: it is
	// reported as measured.
	ResultOnTimer bool
}

var frozen = map[string]calibration{
	wPipeline: {FeedRate: 100, Limit: 5 * time.Millisecond, QueryRate: 100},
	wIngest:   {FeedRate: 0, Limit: 500 * time.Microsecond, HistorySpanMs: 100},
	wQueryMix: {FeedRate: 10, Limit: 20 * time.Millisecond, QueryRate: 100},
	wCluster:  {FeedRate: 200, Limit: 100 * time.Millisecond, QueryRate: 50, ResultOnTimer: true},
}

// Phase lengths relative to the measured window. The issue's 30 s
// window and 5 s warm-up do not fit the driver's run-time cap (92 runs
// in 3420 s), so all four workloads run the same shortened window
// (BENCHMARK.json run_seconds) with the warm-up scaled alike.
const (
	warmupShare  = 1.0 / 6
	deployEvery  = 100 * time.Millisecond
	drainTimeout = 2 * time.Second

	// Set-up and recovery are repeated and their medians reported: at
	// least the minimum number of rounds, then on until the budget is
	// spent or the maximum reached, so that a 10 ms set-up is timed often
	// enough, and over a long enough stretch, to repeat, and a 2 s one does
	// not take the run over its time.
	setupMin, setupMax       = 3, 120
	recoveryMin, recoveryMax = 7, 100
	repeatBudget             = 1500 * time.Millisecond
)
