package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"ppscan/internal/intersect"
)

// metricDef names one metric of the JSON result. BENCHMARK.json at the
// repository root lists the same names, units and directions; selftest.py
// fails when the --schema output and the file differ.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is the bounded set every workload reports with --trace 0. The
// primary and secondary slots carry each workload's two headline figures
// (see README.md for the per-workload definitions).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"primary_ms", "ms", "lower"},
	{"secondary_ms", "ms", "lower"},
}

// classes are the two cluster job classes the per-layer names are keyed on.
var classes = []string{"dense", "sparse"}

// scalingWidths are the worker counts of the recorded scaling curve.
var scalingWidths = []int{1, 2}

// perLayer is the unbounded set every workload reports with --trace 1.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }
	for _, c := range classes {
		for p := 1; p <= 7; p++ {
			add(fmt.Sprintf("core.%s.p%d_ms", c, p), "ms", "lower")
		}
		add("core."+c+".compsim_per_edge", "ratio", "lower")
	}
	for _, k := range intersect.Kinds() {
		for _, c := range classes {
			add(fmt.Sprintf("kernel.%s.%s_melems_per_s", k, c), "Melem/s", "higher")
		}
	}
	for _, c := range classes {
		add("kernel."+c+".early_exit_frac", "ratio", "higher")
		add("kernel."+c+".elems_per_call", "elem", "lower")
	}
	for _, c := range classes {
		for _, w := range scalingWidths {
			add(fmt.Sprintf("sched.%s.speedup_w%d", c, w), "x", "higher")
			add(fmt.Sprintf("sched.%s.efficiency_w%d", c, w), "ratio", "higher")
		}
		add("sched."+c+".busy_frac", "ratio", "higher")
		add("sched."+c+".imbalance", "x", "lower")
		add("sched."+c+".tasks", "count", "lower")
		add("sched."+c+".queue_wait_ms", "ms", "lower")
	}
	add("cluster.dense_w1_s", "s", "lower")
	add("cluster.sparse_w1_s", "s", "lower")
	add("engine.cold_ms", "ms", "lower")
	add("engine.warm_allocs", "count", "lower")
	add("engine.pool_hit_frac", "ratio", "higher")
	add("server.cache_hit_frac", "ratio", "higher")
	add("server.invalidations_per_write", "count", "lower")
	add("server.compute_ms", "ms", "lower")
	add("server.outside_engine_ms", "ms", "lower")
	add("server.admission_rejects", "count", "lower")
	add("serve.write_p50_ms", "ms", "lower")
	add("serve.sweep_p50_ms", "ms", "lower")
	add("serve.capacity_rps", "1/s", "higher")
	add("graph.commit_ms", "ms", "lower")
	add("gsindex.build_ms", "ms", "lower")
	add("gsindex.query_ms", "ms", "lower")
	for _, rd := range shardRounds {
		add("shard.round_ms."+rd, "ms", "lower")
	}
	for _, rd := range shardRounds {
		add("shard.worker_ms."+rd, "ms", "lower")
	}
	add("shard.transport_ms", "ms", "lower")
	add("shard.rpcs_per_query", "count", "lower")
	add("shard.bytes_per_query", "B", "lower")
	add("shard.retries", "count", "lower")
	add("loadgen.late_p99_ms", "ms", "lower")
	add("trace_overhead_frac", "ratio", "lower")
	return out
}

func unitOf(set []metricDef, name string) string {
	for _, d := range set {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// printSchema prints both metric sets in BENCHMARK.json's shape (without
// the bounds, which are a property of the benchmark file, not the binary).
func printSchema() int {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string][]metricDef{"end_to_end": endToEnd, "per_layer": perLayer}); err != nil {
		fmt.Fprintf(os.Stderr, "scanbench: %v\n", err)
		return 1
	}
	return 0
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// percentileName names an op's q-quantile latency figure, marked when n
// samples leave fewer than ten beyond it (the rule a named percentile must
// meet).
func percentileName(op string, n int, q float64) string {
	name := fmt.Sprintf("%s_p%d_ms", op, int(q*100))
	if float64(n)*(1-q) < 10 {
		name += fmt.Sprintf("(unsupported:n<%d)", int(10/(1-q)+0.5))
	}
	return name
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nsToMs converts nanoseconds to milliseconds.
func nsToMs(ns float64) float64 { return ns / 1e6 }
