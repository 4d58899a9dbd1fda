package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit. The two lists below must match
// BENCHMARK.json's end_to_end and per_layer lists; a test checks that.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or of ioatd sees;
// every workload reports all of them. An operation is a figure run
// (Runner.Run) or a job; a round is the workload's fixed unit of work.
// endToEndMetrics defines each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"round_s", "s"},
	{"events_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p98_ms", "ms"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
}

// shareLayers are the layers host CPU time is attributed to. Each is an
// ioatsim/internal package, except "other" (every smaller internal
// package: check, cost, fault, ioat, ipc, stats, ...) and "runtime"
// (samples with no simulator frame: the Go runtime, the standard library
// and this benchmark itself).
var shareLayers = []string{
	"mem", "sim", "cpu", "host", "tcp", "msg", "nic", "link", "dma",
	"datacenter", "pvfs", "ramfs", "workload", "sweep", "serve", "bench",
	"other", "runtime",
}

// perLayerDefs lists the traced run's metrics: CPU shares, per-round
// counters, round diagnostics and the layer ladder's rungs.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, l := range shareLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio"})
	}
	defs = append(defs,
		metricDef{"sim.events", "count/round"},
		metricDef{"sim.proc_switches", "count/round"},
		metricDef{"sim.peak_pending", "count"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.gc_cycles", "count/round"},
		metricDef{"runtime.mallocs", "count/round"},
		metricDef{"sweep.hit_ratio", "ratio"},
		metricDef{"sweep.misses", "count/round"},
		metricDef{"sweep.evictions", "count/round"},
		metricDef{"serve.rejected", "count"},
		metricDef{"rounds.p50_s", "s"},
		metricDef{"rounds.max_s", "s"},
		metricDef{"rounds.yardstick_ms", "ms"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
	return append(defs, rungDefs()...)
}

// rungDefs lists the layer ladder's metrics: each rung's time per
// operation and its allocations per operation.
func rungDefs() []metricDef {
	var defs []metricDef
	for _, r := range rungs {
		defs = append(defs, metricDef{r.name, r.unit}, metricDef{r.name + ".allocs", "allocs/op"})
	}
	return defs
}

// pick returns the named metrics of ms, or an error naming the first one
// that is missing or carries another unit.
func pick(ms map[string]metric, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := ms[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return nil, fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
	}
	return out, nil
}

// printMetrics writes one "workload metric value unit" line per metric:
// the end-to-end ones first, then the rest by name.
func printMetrics(w io.Writer, workload string, ms map[string]metric) {
	rank := func(name string) int {
		for i, d := range endToEnd {
			if d.name == name {
				return i
			}
		}
		return len(endToEnd)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	sort.SliceStable(names, func(i, j int) bool { return rank(names[i]) < rank(names[j]) })
	for _, n := range names {
		fmt.Fprintf(w, "%-10s %-40s %14.6g %s\n", workload, n, ms[n].Value, ms[n].Unit)
	}
}

// layerOf maps a profiled function name to its share layer, or "" when
// the function is not part of the simulator.
func layerOf(fn string) string {
	const prefix = "ioatsim/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	pkg := fn[len(prefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if slices.Contains(shareLayers, pkg) {
		return pkg
	}
	return "other"
}
