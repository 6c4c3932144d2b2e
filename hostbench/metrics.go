package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two catalogs below
// are the benchmark's contract with BENCHMARK.json: every run prints every
// end-to-end metric (untraced) or every per-layer metric (traced), on every
// workload, and the self-test holds the catalogs and BENCHMARK.json equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the host-side numbers a user of the simulator or serving tier
// sees. Each workload measures them on its own calls: "req" is one request
// through cluster.Run on the serve workloads and one partition call or join
// on paper-partition; the FPGA, CPU-partitioner and hybrid-join metrics are
// measured on the paper relation, or on a fixed sample of the request
// stream's own relations on the serve workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"cpu_part_mtuples_per_s", "Mtuples/s"},
	{"hybrid_join_ms", "ms"},
	{"serve_req_per_s", "1/s"},
	{"alloc_kb_per_req", "KB"},
	{"peak_rss_mb", "MB"},
}

// modes are Figure 9's four circuit modes, in the paper's order.
var modes = []string{"hist_rid", "pad_rid", "hist_vrid", "pad_vrid"}

// leafModules are the buckets of the traced run's CPU-profile samples, by the
// package of each sample's leaf frame; "other" takes every other package.
var leafModules = []string{
	"cluster", "partserver", "core", "fpga", "qpi", "memsys", "cpupart",
	"joincore", "hashutil", "reqtrace", "simtrace", "runtime", "other",
}

// perLayer lists the traced run's metrics. A workload that makes no call into
// a module reports that module's metrics as 0: paper-partition never reaches
// partserver, cluster or reqtrace, and serve-static runs without reqtrace.
// Likewise ".large" metrics are the paper relation's and ".small" ones the
// request-sized relations'.
var perLayer = func() []metricDef {
	var m []metricDef
	for _, md := range modes {
		m = append(m,
			metricDef{"core.host_ns_per_cycle." + md, "ns"},
			metricDef{"core.alloc_bytes_per_tuple." + md, "B"},
			metricDef{"core.cycles." + md, "cycles"},
			metricDef{"core.stalls_backpressure." + md, "cycles"},
			metricDef{"core.stalls_hazard." + md, "cycles"},
			metricDef{"core.hash_bubbles." + md, "cycles"},
			metricDef{"core.flush_cycles." + md, "cycles"},
			metricDef{"core.sim_mtuples_per_s." + md, "Mtuples/s"},
			metricDef{"core.model_mtuples_per_s." + md, "Mtuples/s"},
			metricDef{"qpi.lines_read." + md, "lines"},
			metricDef{"qpi.lines_written." + md, "lines"},
			metricDef{"qpi.useful_line_ratio." + md, "ratio"},
		)
	}
	m = append(m,
		metricDef{"core.new_circuit_us.p8192", "us"},
		metricDef{"core.new_circuit_us.p64", "us"},
		metricDef{"cpupart.ns_per_tuple.large", "ns"},
		metricDef{"cpupart.ns_per_tuple.small", "ns"},
		metricDef{"joincore.ns_per_tuple", "ns"},
		metricDef{"joincore.ns_per_tuple.small", "ns"},
		metricDef{"hashjoin.partition_ms", "sim_ms"},
		metricDef{"hashjoin.build_probe_ms", "ms"},
		metricDef{"partserver.host_us_per_job", "us"},
		metricDef{"partserver.placed_fpga", "count"},
		metricDef{"partserver.placed_cpu", "count"},
		metricDef{"partserver.degraded", "count"},
		metricDef{"partserver.attempts_per_job", "ratio"},
		metricDef{"partserver.virt_queue_wait_p50_us", "sim_us"},
		metricDef{"partserver.virt_queue_wait_p99_us", "sim_us"},
		metricDef{"partserver.virt_exec_p99_us", "sim_us"},
		metricDef{"cluster.ring_ns_per_lookup", "ns"},
		metricDef{"cluster.replicaset_ns_per_lookup", "ns"},
		metricDef{"cluster.throttled", "count"},
		metricDef{"cluster.rerouted", "count"},
		metricDef{"cluster.handoff_delayed", "count"},
		metricDef{"cluster.hedge_issued", "count"},
		metricDef{"cluster.hedge_win_ratio", "ratio"},
		metricDef{"cluster.hedge_wasted_us", "sim_us"},
		metricDef{"cluster.virt_p50_us", "sim_us"},
		metricDef{"cluster.virt_p99_us", "sim_us"},
		metricDef{"cluster.virt_qps", "1/sim_s"},
		metricDef{"cluster.cost_growth_2x", "ratio"},
		metricDef{"reqtrace.analyze_us_per_req", "us"},
		metricDef{"reqtrace.breakdown_write_us_per_req", "us"},
		metricDef{"reqtrace.conserved_ratio", "ratio"},
		metricDef{"reqtrace.flight_dropped", "count"},
		metricDef{"gc.pause_ms", "ms"},
		metricDef{"gc.cycles", "count"},
	)
	for _, mod := range leafModules {
		m = append(m, metricDef{"self_share." + mod, "share"})
	}
	m = append(m,
		metricDef{"self_share.samples", "count"},
		metricDef{"trace_overhead_pct", "%"},
	)
	return m
}()

// metricValue is one reported value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map of catalog from vals, failing if a metric is
// missing, unexpected or not a finite number.
func fill(catalog []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(catalog))
	for _, d := range catalog {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(vals) != len(catalog) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not in the catalog", name)
			}
		}
	}
	return out, nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-th percentile of xs by the nearest-rank rule.
func nearestRank(xs []float64, q int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := (q*len(s)+99)/100 - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ratio is a/b, or 0 when b is 0 (a workload that made no such call).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
