package main

// metricSpec describes one metric as BENCHMARK.json lists it. bound is set
// for end-to-end metrics only: the share of the parent's median by which the
// metric may get worse before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is BENCHMARK.json's run_seconds: the window length the bounds
// below were measured with, and the default of -seconds.
const runSeconds = 20

// endToEnd lists what a user of the mediator sees on every workload, measured
// in the window with every wrapper off. A bound is the share of the parent's
// median by which a later change may worsen the metric; README.md ("Known
// noise") records the run-to-run spreads each bound was set from.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"query_p50_ms", "ms", lower, 0.25},
	{"query_p95_ms", "ms", lower, 0.25},
	{"queries_per_s", "1/s", higher, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.25},
}

// perLayer lists what the --trace 1 run reports, without bounds. First the
// user-visible metrics that exist on one workload only (the benchmark contract
// wants every end-to-end metric from every workload, so these cannot be
// gated): they come from the traced run's own wrappers-off window and read 0
// where the workload has no such operation. Then what single layers did,
// named after the repository's packages.
var perLayer = []metricSpec{
	{"ttfr_p50_ms", "ms", lower, 0},
	{"write_p50_ms", "ms", lower, 0},
	{"write_p95_ms", "ms", lower, 0},
	{"post_write_query_p50_ms", "ms", lower, 0},
	{"reopen_s", "s", lower, 0},
	{"space_amp", "ratio", lower, 0},
	{"core.parse_us", "us", lower, 0},
	{"core.plan_us", "us", lower, 0},
	{"core.exec_ms", "ms", lower, 0},
	{"core.exec_self_ms", "ms", lower, 0},
	{"core.ttfr_ms", "ms", lower, 0},
	{"core.allocs_per_query", "count", lower, 0},
	{"core.alloc_bytes_per_query", "B", lower, 0},
	{"core.subqueries_per_query", "count", lower, 0},
	{"core.batch_probes_per_query", "count", lower, 0},
	{"core.pruned_probe_ratio", "ratio", higher, 0},
	{"core.rows_fetched_per_result_row", "ratio", lower, 0},
	{"core.class.e1_rare_p50_ms", "ms", lower, 0},
	{"core.class.e1_common_p50_ms", "ms", lower, 0},
	{"core.class.e2_facts_p50_ms", "ms", lower, 0},
	{"core.class.e11_xml_p50_ms", "ms", lower, 0},
	{"core.class.e12_agg_p50_ms", "ms", lower, 0},
	{"core.class.g_lookup_p50_ms", "ms", lower, 0},
	{"digest.build_ms.fulltext", "ms", lower, 0},
	{"digest.build_ms.relstore", "ms", lower, 0},
	{"digest.fetches_per_write", "count", lower, 0},
	{"digest.hit_ratio", "ratio", higher, 0},
	{"source.fulltext.busy_ms_per_query", "ms", lower, 0},
	{"source.relstore.busy_ms_per_query", "ms", lower, 0},
	{"source.xmlstore.busy_ms_per_query", "ms", lower, 0},
	{"source.calls_per_query", "count", lower, 0},
	{"source.rows_per_call", "count", lower, 0},
	{"source.probe_cache_hit_ratio", "ratio", higher, 0},
	{"rdf.bgp_ms_per_query", "ms", lower, 0},
	{"federation.rtts_per_query", "count", lower, 0},
	{"federation.bytes_per_query", "B", lower, 0},
	{"federation.remote_frac", "ratio", lower, 0},
	{"federation.wire_frac", "ratio", lower, 0},
	{"federation.delay_frac", "ratio", lower, 0},
	{"server.overhead_ms_per_query", "ms", lower, 0},
	{"server.stream_overhead_ms", "ms", lower, 0},
	{"server.result_cache_hit_ratio", "ratio", higher, 0},
	{"server.coalesced_frac", "ratio", higher, 0},
	{"server.resp_bytes_per_query", "B", lower, 0},
	{"server.query_p99_ms", "ms", lower, 0},
	{"reason.apply_insert_us", "us", lower, 0},
	{"reason.full_recomputes", "count", lower, 0},
	{"reason.derived_per_write", "count", lower, 0},
	{"pager.cache_hit_ratio", "ratio", higher, 0},
	{"pager.misses_per_query", "count", lower, 0},
	{"pager.evictions_per_query", "count", lower, 0},
	{"pager.wal_bytes_per_write", "B", lower, 0},
	{"pager.commits_per_write", "count", lower, 0},
	{"pager.checkpoints", "count", lower, 0},
	{"pager.commit_fsync_ms", "ms", lower, 0},
	{"pager.commit_nosync_us", "us", lower, 0},
	{"pager.checkpoint_ms", "ms", lower, 0},
	{"btree.get_hit_us", "us", lower, 0},
	{"btree.get_miss_us", "us", lower, 0},
	{"btree.insert_us", "us", lower, 0},
	{"btree.scan_us_per_1k_keys", "us", lower, 0},
	{"store.live_frac", "ratio", higher, 0},
	{"store.vacuums", "count", lower, 0},
	{"bench.trace_overhead_frac", "ratio", lower, 0},
	{"bench.breakdown_gap_frac", "ratio", lower, 0},
	{"bench.window_reads", "count", higher, 0},
	{"bench.window_writes", "count", higher, 0},
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet accumulates values by name and renders the ones a spec list
// names, with the list's units. A name missing from the set is a bug in the
// benchmark, reported rather than papered over with a zero.
type metricSet map[string]float64

func (m metricSet) render(specs []metricSpec) (map[string]measurement, []string) {
	out := make(map[string]measurement, len(specs))
	var missing []string
	for _, s := range specs {
		v, ok := m[s.Name]
		if !ok {
			missing = append(missing, s.Name)
			continue
		}
		out[s.Name] = measurement{Value: v, Unit: s.Unit}
	}
	return out, missing
}
