package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit. The lists must
// match BENCHMARK.json's end_to_end and per_layer entries (checked by
// TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd is reported by every untraced run (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"paper_err_reqj", "ratio"},
	{"paper_err_latency", "ratio"},
	{"paper_err_l1", "ratio"},
	{"paper_err_memlat", "ratio"},
}

// hostLayers are the packages the CPU profile attributes host time to.
var hostLayers = []string{"isa", "simt", "core", "trace", "mem", "pipeline", "energy", "queuesim"}

// perLayer is reported by every traced run (--trace 1). A layer the
// workload does not exercise reports 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"bench.trace_overhead", "ratio"},
		{"isa.interp_s", "s"}, {"isa.trace_ops", "count"}, {"isa.ns_per_op", "ns"},
		{"batch.form_s", "s"}, {"batch.batches", "count"},
		{"simt.merge_s", "s"}, {"simt.batch_ops", "count"}, {"simt.efficiency", "ratio"},
		{"trace.scalar_hit_ratio", "ratio"}, {"trace.batch_hits", "count"},
		{"trace.batch_misses", "count"}, {"trace.batch_bypassed", "count"},
		{"trace.batch_hit_ratio", "ratio"}, {"trace.batch_dropped_bytes", "bytes"},
		{"trace.batch_bytes_hwm", "bytes"},
		{"core.prep_s", "s"}, {"core.consume_s", "s"}, {"core.prep_stall_s", "s"},
		{"core.pool_busy_frac", "ratio"}, {"core.slowest_cell_s", "s"}, {"core.cells", "count"},
		{"core.cell_p50_s", "s"}, {"core.cell_tail_s", "s"},
		{"pipeline.run_s", "s"}, {"pipeline.uops", "count"}, {"pipeline.ns_per_uop", "ns"},
		{"pipeline.ipc", "ratio"}, {"pipeline.mispredicts", "count"}, {"pipeline.flushed_lanes", "count"},
		{"mem.l1_accesses", "count"}, {"mem.l1_mpki", "ratio"},
		{"mem.bank_conflicts", "count"}, {"mem.dram_accesses", "count"},
		{"energy.compute_s", "s"}, {"energy.dynamic_share", "ratio"},
		{"queuesim.tail_point_s", "s"}, {"queuesim.events", "count"}, {"queuesim.ns_per_event", "ns"},
		{"queuesim.cancelled_timers", "count"}, {"queuesim.inflight_hwm", "count"},
		{"queuesim.goodput_ratio", "ratio"},
		{"queuesim.closure_point_s", "s"}, {"queuesim.closure_completed", "count"},
	}
	for _, l := range hostLayers {
		m = append(m, metricDef{l + ".host_share", "ratio"})
	}
	return append(m, metricDef{"go.gc_share", "ratio"}, metricDef{"unattributed", "ratio"})
}()

// metricName is the grammar every metric name must follow.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult fills every metric of defs from vals; a name missing from
// vals, or one vals has beyond defs, is a benchmark bug.
func buildResult(defs []metricDef, vals map[string]float64, attempted, failed int) (*result, error) {
	r := &result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{v, d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(vals), len(defs))
	}
	return r, nil
}

// write prints one "name value unit" line per metric, then the JSON
// result as the last line.
func (r *result) write(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "%-28s %14.6g ratio\n", "fail_frac", float64(r.Failed)/float64(r.Attempted))
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailQuantile returns the highest quantile of n samples that has at
// least ten samples beyond it, and never less than the median.
func tailQuantile(n int) float64 {
	return math.Max(0.5, 1-10/float64(n))
}
