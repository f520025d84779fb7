package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the program emits. BENCHMARK.json at the repo
// root declares the same names with their direction and bound; the smoke
// test fails when the two sets differ in either direction.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists what a caller of the system sees, printed with -trace 0.
// Failures are not a metric here: the result line carries them as
// `failed` out of `attempted`.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_ops_per_s", "ops/s"},
	{"wall_p50_ms", "ms"},
	{"wall_p95_ms", "ms"},
	{"sim_mean_ms", "ms"},
	{"sim_p90_ms", "ms"},
	{"sim_sat_ops_per_s", "ops/s"},
	{"heap_mb", "MB"},
	{"store_bytes_per_user_byte", "ratio"},
}

// perLayer lists the single-layer metrics, printed with -trace 1. Every
// workload prints all of them, so the list holds only what every workload
// can measure: the per-template medians of a cycle are printed and kept in
// the result file (runResult.TemplateMS) instead.
var perLayer = []metricDef{
	{"frontend.query_us", "us"},
	{"frontend.self_us", "us"},
	{"frontend.throttled", "count"},
	{"query.parse_us", "us"},
	{"query.prepare_us", "us"},
	{"query.explain_us", "us"},
	{"query.bind_us", "us"},
	{"query.run_us", "us"},
	{"query.fetch_us", "us"},
	{"query.plan_cache_hit_ratio", "ratio"},
	{"query.vertices_read_per_op", "count"},
	{"query.objects_read_per_op", "count"},
	{"query.remote_reads_per_op", "count"},
	{"query.local_frac", "ratio"},
	{"query.rpcs_per_op", "count"},
	{"query.rows_shipped_per_op", "count"},
	{"query.bytes_shipped_per_op", "bytes"},
	{"query.groups_shipped_per_op", "count"},
	{"query.reads_per_result", "ratio"},
	{"query.qerror_p50", "ratio"},
	{"query.qerror_max", "ratio"},
	{"query.pending_results_after", "count"},
	{"query.pending_runs_after", "count"},
	{"core.lookup_us", "us"},
	{"core.read_vertex_us", "us"},
	{"core.read_vertices_us_per_vertex", "us"},
	{"core.enum_edges_ns_per_edge", "ns"},
	{"core.enum_edges_spilled_ns_per_edge", "ns"},
	{"core.index_scan_ns_per_entry", "ns"},
	{"core.ordered_scan_us_per_row", "us"},
	{"core.update_vertex_us", "us"},
	{"core.create_vertex_us", "us"},
	{"core.create_edge_us", "us"},
	{"farm.tx_read_us", "us"},
	{"farm.btree_get_us", "us"},
	{"farm.btree_put_us", "us"},
	{"farm.btree_scan_ns_per_key", "ns"},
	{"farm.commit_us", "us"},
	{"farm.tx_attempts_per_commit", "ratio"},
	{"farm.gc_us", "us"},
	{"farm.gc_freed", "count"},
	{"farm.used_mb", "MB"},
	{"bond.unmarshal_struct_ns", "ns"},
	{"bond.marshal_ns", "ns"},
	{"bond.ordered_encode_ns", "ns"},
	{"stats.summary_cold_us", "us"},
	{"stats.summary_cached_us", "us"},
	{"stats.analyze_s", "s"},
	{"fabric.sim_rdma_us_per_op", "us"},
	{"sim.wall_s", "s"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"client.wall_p99_ms", "ms"},
	{"client.wall_max_ms", "ms"},
	{"client.samples", "count"},
	{"client.retried_ops", "count"},
	{"trace.overhead_pct", "%"},
}

// benchmarkSpec is the part of BENCHMARK.json the program reads: the
// comparator takes each end-to-end metric's direction and bound from it.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
