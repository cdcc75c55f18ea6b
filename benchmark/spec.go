package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metric declares one reported number. Exact metrics are counts or
// virtual-time results: two runs of the same tree with the same seed must
// agree on them bit for bit.
type metric struct {
	Name   string
	Unit   string
	Better string
	Exact  bool
}

// timedEndToEnd are the end-to-end metrics BENCHMARK.json bounds relatively;
// every workload reports a non-zero value for each.
var timedEndToEnd = []metric{
	{"setup_s", "s", "lower", false},
	{"op_p50_ms", "ms", "lower", false},
	{"op_tail_ms", "ms", "lower", false},
	{"ops_per_s", "1/s", "higher", false},
	{"alloc_mb_per_op", "MB", "lower", false},
}

// exactEndToEnd are end-to-end results that are legitimately zero or absent
// on some workloads, so BENCHMARK.json lists them under per_layer (a relative
// bound on a zero base means nothing) and -compare gives them absolute
// bounds instead.
var exactEndToEnd = []metric{
	{"timing_error_pct", "%", "lower", true},
	{"source_kb", "KB", "lower", true},
	{"failed_share", "ratio", "lower", true},
}

// absBound is the absolute amount an exact end-to-end metric may worsen.
// source_kb is bounded relatively (1 %) like the timed ones.
var absBound = map[string]float64{"timing_error_pct": 0.05, "failed_share": 0}

const sourceKBBound = 0.01

// layerMetrics are the per-layer metrics of the traced phase. A workload
// whose op never enters a layer reports 0 for that layer's metrics.
var layerMetrics = []metric{
	{"mpi.app_run_ms", "ms", "lower", false},
	{"mpi.cold_run_ms", "ms", "lower", false},
	{"mpi.ns_per_event", "ns", "lower", false},
	{"mpi.causal_overhead_pct", "%", "lower", false},
	{"mpi.sched_events", "count", "lower", true},
	{"mpi.sched_wakes", "count", "lower", true},
	{"mpi.fast_match_ratio", "ratio", "higher", true},
	{"mpi.world_reuse_ratio", "ratio", "higher", false},
	{"mpi.wildcard_recvs", "count", "lower", true},
	{"mpi.runpool_steals", "count", "lower", false},

	{"trace.collect_ms", "ms", "lower", false},
	{"trace.finalize_merge_ms", "ms", "lower", false},
	{"trace.encode_ms", "ms", "lower", false},
	{"trace.decode_ms", "ms", "lower", false},
	{"trace.events", "count", "lower", true},
	{"trace.nodes", "count", "lower", true},
	{"trace.bytes", "count", "lower", true},
	{"trace.folds", "count", "lower", true},
	{"trace.rsd_merges", "count", "lower", true},
	{"trace.events_per_node", "ratio", "higher", true},

	{"wildcard.resolve_ms", "ms", "lower", false},
	{"wildcard.resolved", "count", "lower", true},
	{"align.align_ms", "ms", "lower", false},
	{"align.rounds", "count", "lower", true},

	{"core.traverse_ms", "ms", "lower", false},
	{"core.gogen_ms", "ms", "lower", false},
	{"core.stmts", "count", "lower", true},

	{"conceptual.print_ms", "ms", "lower", false},
	{"conceptual.parse_ms", "ms", "lower", false},
	{"conceptual.cgen_ms", "ms", "lower", false},
	{"conceptual.execute_ms", "ms", "lower", false},
	{"conceptual.exec_ns_per_event", "ns", "lower", false},
	{"conceptual.source_bytes", "count", "lower", true},
	{"conceptual.cursor_programs", "count", "lower", true},

	{"replay.replay_ms", "ms", "lower", false},
	{"replay.ns_per_event", "ns", "lower", false},
	{"critpath.analyze_ms", "ms", "lower", false},
	{"critpath.records", "count", "lower", true},

	{"mpnet.lower_ms", "ms", "lower", false},
	{"mpnet.check_ms", "ms", "lower", false},
	{"mpnet.crossvalidate_ms", "ms", "lower", false},
	{"mpnet.states", "count", "lower", true},
	{"mpnet.exhaustive", "count", "higher", true},
	{"mpnet.states_per_s", "1/s", "higher", false},
	{"mpnet.alloc_mb_per_check", "MB", "lower", false},

	{"service.hit_mem_ms", "ms", "lower", false},
	{"service.hit_disk_ms", "ms", "lower", false},
	{"service.miss_ms", "ms", "lower", false},
	{"service.stage_trace_ms", "ms", "lower", false},
	{"service.stage_generate_ms", "ms", "lower", false},
	{"service.stage_render_ms", "ms", "lower", false},
	{"service.stage_predict_ms", "ms", "lower", false},
	{"service.overhead_ms", "ms", "lower", false},
	{"service.cache_hits_mem", "count", "higher", true},
	{"service.cache_hits_disk", "count", "lower", true},
	{"service.cache_misses", "count", "lower", true},
	{"service.rejected_busy", "count", "lower", true},
	{"service.hit_ratio", "ratio", "higher", true},
	{"service.response_kb", "KB", "lower", false},

	{"check.ms", "ms", "lower", false},
	// host.slowdown is the traced ops' median host slowdown (see calib.go):
	// every time above is already divided by its own op's.
	{"host.slowdown", "ratio", "lower", false},
	{"bench.unattributed_pct", "%", "lower", false},
	{"bench.trace_overhead_pct", "%", "lower", false},
	{"runtime.peak_rss_mb", "MB", "lower", false},
	{"runtime.gc_cpu_pct", "%", "lower", false},
	{"runtime.mallocs_per_op", "count", "lower", false},
}

// tracedMetrics is what a --trace 1 run prints: BENCHMARK.json's per_layer.
func tracedMetrics() []metric {
	return append(append([]metric(nil), exactEndToEnd...), layerMetrics...)
}

// specMetric and spec mirror BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// repoRoot finds the directory holding BENCHMARK.json: the working directory
// (run.sh starts the binary there) or its parent (go run -C benchmark).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root")
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// bounds returns each timed end-to-end metric's relative regression bound.
func (s *spec) bounds() map[string]float64 {
	out := map[string]float64{}
	for _, m := range s.EndToEnd {
		if m.Bound != nil {
			out[m.Name] = *m.Bound
		}
	}
	return out
}
