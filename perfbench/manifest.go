package main

import (
	"bytes"
	"encoding/json"
)

// metricSpec names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none.
type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measured window of one run. Every run also pays its
// set-up (five set-ups, each with its warm-up ops) and the post-window
// output checks.
const runSeconds = 30

var workloadSpecs = []workloadSpec{
	{"batch-hub", "cmd/infomap path without the disk on a fixed 1/128-scale soc-Pokec replica: parse plus hashgraph at 2 workers; hubs give the largest accumulator sessions"},
	{"serve-cold", "cold POST /v1/detect on directed R-MAT graphs, fresh seeds, no cache hits, on one core: wire, queue and PageRank power iteration beside a softhash kernel"},
	{"serve-delta", "evolving LFR graph on one core: delta upload then warm-start detect per step; write path, lineage walk and frontier-restricted runs"},
}

// endToEnd metrics are what a user of the program sees. error_rate is not
// among them: it is 0 on a healthy run, so it travels in the result's
// attempted/failed counts instead.
var endToEnd = []metricSpec{
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"latency_ms_p90", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"codelength_bits", "bits", "lower", 0.02},
	{"alloc_mb_per_op", "MB", "lower", 0.1},
	{"heap_live_mb", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics come from the traced run. Counts derived from the fixed,
// seed-determined prefix of a run's ops repeat exactly across runs of one
// seed; timings do not. A layer a workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"graph.parse_ms", "ms", "lower", 0},
	{"graph.parse_mb_per_s", "MB/s", "higher", 0},
	{"graph.delta_apply_ms", "ms", "lower", 0},
	{"graph.canonical_hash_ms", "ms", "lower", 0},
	{"pagerank.ms", "ms", "lower", 0},
	{"infomap.run_ms", "ms", "lower", 0},
	{"infomap.find_best_community_ms", "ms", "lower", 0},
	{"infomap.update_members_ms", "ms", "lower", 0},
	{"infomap.convert2supernode_ms", "ms", "lower", 0},
	{"infomap.sweeps", "count", "lower", 0},
	{"infomap.levels", "count", "lower", 0},
	{"infomap.moves", "count", "lower", 0},
	{"infomap.frontier_size", "count", "lower", 0},
	{"infomap.frozen_frac", "ratio", "higher", 0},
	{"accum.accumulates", "count", "lower", 0},
	{"accum.hit_ratio", "ratio", "higher", 0},
	{"accum.chain_hops", "count", "lower", 0},
	{"accum.rehashes", "count", "lower", 0},
	{"accum.binned_kv", "count", "lower", 0},
	{"accum.bin_merged_kv", "count", "lower", 0},
	{"accum.ns_per_accumulate", "ns", "lower", 0},
	{"sched.busy_ms", "ms", "lower", 0},
	{"sched.efficiency", "ratio", "higher", 0},
	{"sched.imbalance", "ratio", "lower", 0},
	{"sched.steals", "count", "lower", 0},
	{"serve.request_ms", "ms", "lower", 0},
	{"serve.transport_ms", "ms", "lower", 0},
	{"serve.queue_wait_ms", "ms", "lower", 0},
	{"serve.overhead_ms", "ms", "lower", 0},
	{"serve.delta_upload_ms", "ms", "lower", 0},
	{"serve.warm_detect_ms", "ms", "lower", 0},
	{"serve.lineage_depth", "count", "lower", 0},
	{"serve.runs_per_request", "count", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.response_kb", "KB", "lower", 0},
	{"serve.trace_dropped", "count", "lower", 0},
	{"perf.modeled_ms", "ms", "lower", 0},
	{"perf.modeled_over_measured", "ratio", "higher", 0},
	{"runtime.cpu_ms_per_op", "ms", "lower", 0},
	{"runtime.gc_cycles_per_op", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_op", "ms", "lower", 0},
	{"host.ref_ms", "ms", "lower", 0},
	{"obs.trace_overhead_pct", "%", "lower", 0},
	{"unaccounted_ms", "ms", "lower", 0},
}

// manifest renders BENCHMARK.json, the contract under which the benchmark
// is run and judged. The committed file must equal these bytes.
func manifest() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		panic(err) // static data; cannot fail
	}
	return buf.Bytes()
}
