package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// workloadDef names one workload and says why the benchmark runs it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef describes one reported metric. Bound is set on end-to-end
// metrics only: the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloads = []workloadDef{
	{"paper-map", "the paper's 13-plan 11x11 2-D map on 65,536 rows, cold resolver: the per-cell engine path (exec, record, btree, storage, simclock, iomodel) at volume"},
	{"join-map", "the FK-skew join query map (orders 16,384 x customer 1,024, histograms): allocation-bound joins and Sort, optimizer enumeration, multi-table datagen"},
	{"fleet-map", "the skewed query's 6x6 2-D map (8,192 rows) through HTTP to a cold coordinator sharding across 2 workers, then a repeat from its archive: the httpapi, fabric and mapstore path"},
}

// endToEnd lists the metrics a user of robustmap sees, measured with
// tracing off. Every workload reports every one of them (see NOTES.md
// for what each means on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"repeat_job_ms_p50", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the traced run's metrics. A layer a workload bypasses
// reports 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"service.resolve_s", "s", "lower", 0},
		{"service.queue_ms_p50", "ms", "lower", 0},
		{"engine.cell_us_p50", "us", "lower", 0},
		{"engine.cell_us_tail", "us", "lower", 0},
		{"engine.cells", "count", "higher", 0},
		{"core.self_s", "s", "lower", 0},
		{"core.cache_hit_ratio", "fraction", "higher", 0},
		{"runtime.alloc_kb_per_cell", "KB", "lower", 0},
		{"runtime.mallocs_per_cell", "count", "lower", 0},
		{"runtime.gc_cycles", "count", "lower", 0},
		{"httpapi.submit_ms_p50", "ms", "lower", 0},
		{"httpapi.result_ms_p50", "ms", "lower", 0},
		{"httpapi.result_kb_p50", "KB", "lower", 0},
		{"fabric.shard_ms_p50", "ms", "lower", 0},
		{"fabric.shards_per_job", "count", "lower", 0},
		{"fabric.reissues", "count", "lower", 0},
		{"mapstore.map_hit_ratio", "fraction", "higher", 0},
		{"mapstore.kb_per_fresh_job", "KB", "lower", 0},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b, "fraction", "lower", 0})
	}
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"trace.overhead." + m.Name, "fraction", "lower", 0})
	}
	return defs
}()

// benchmarkDoc is the BENCHMARK.json document.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// runSeconds is how long one run measures by default.
const runSeconds = 25

func writeBenchmarkDoc(w io.Writer) error {
	doc := benchmarkDoc{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least 10
// samples beyond it, and that percentile. Below 21 samples that
// percentile would lie under the median; the maximum is returned
// instead, as percentile 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	k := n - 11
	if k < n/2 {
		return s[n-1], 100
	}
	return s[k], 100 * float64(k+1) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0 (a bypassed layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
