package main

import (
	"sort"

	"dsmsim"
)

// metricDef is one named metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// bench_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before -compare calls it a regression. Per-layer
	// metrics carry no bound.
	Bound float64
}

// endToEnd is what a user of the simulator pays for one iteration of a
// workload: host time, host memory, and how much simulated work that
// buys. Failed runs are counted against attempted ones in the result's
// own attempted/failed fields (a ratio that is always zero cannot carry a
// relative bound, so fail_ratio is printed but not listed here).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_ms_p50", "ms", "lower", 0.2},
	{"sim_msgs_per_s", "msgs/s", "higher", 0.2},
	{"alloc_mb_per_iter", "MB", "lower", 0.03},
	{"mallocs_per_iter", "count", "lower", 0.03},
}

// protoLayerDefs are the per-protocol probe metrics; one set per entry of
// the protocol registry, so a protocol registered later shows up without
// an edit here.
func protoLayerDefs() []metricDef {
	var defs []metricDef
	for _, p := range dsmsim.AllProtocols() {
		defs = append(defs,
			metricDef{Name: "proto." + p + ".fault_rt_ns", Unit: "ns", Better: "lower"},
			metricDef{Name: "proto." + p + ".msgs_per_fault", Unit: "count", Better: "lower"},
			metricDef{Name: "proto." + p + ".build_1024n_ms", Unit: "ms", Better: "lower"},
			metricDef{Name: "proto." + p + ".static_mb_1024n", Unit: "MB", Better: "lower"},
		)
	}
	return defs
}

// fixedLayerDefs are the per-layer metrics whose names do not depend on
// the protocol registry. The first block comes from the layer probes
// (once per invocation, whatever the workload), the rest from the traced
// pass and the model counts of the workload that ran.
var fixedLayerDefs = []metricDef{
	// Layer probes.
	{Name: "sim.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.switch_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.sleep_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.tag_check_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.set_tag_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.diff_4k_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.diff_apply_4k_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.new_space_us", Unit: "us", Better: "lower"},
	{Name: "network.send_ns", Unit: "ns", Better: "lower"},
	{Name: "network.send_data_4k_ns", Unit: "ns", Better: "lower"},
	{Name: "network.arq_send_ns", Unit: "ns", Better: "lower"},
	{Name: "network.arq_retx_ratio", Unit: "ratio", Better: "lower"},
	{Name: "network.arq_acks_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "timing.latency_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "faults.parse_us", Unit: "us", Better: "lower"},
	{Name: "synch.lock_handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "synch.msgs_per_lock_sc", Unit: "count", Better: "lower"},
	{Name: "synch.lock_handoff_lrc_ns", Unit: "ns", Better: "lower"},
	{Name: "synch.msgs_per_lock_lrc", Unit: "count", Better: "lower"},
	{Name: "synch.barrier_16n_ns", Unit: "ns", Better: "lower"},
	{Name: "synch.barrier_1024n_us", Unit: "us", Better: "lower"},
	{Name: "core.access_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "core.access_rescan_ns", Unit: "ns", Better: "lower"},
	{Name: "core.build_16n_us", Unit: "us", Better: "lower"},
	{Name: "core.build_1024n_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_capture_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_digest_ms", Unit: "ms", Better: "lower"},
	{Name: "core.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.points_us", Unit: "us", Better: "lower"},
	{Name: "sweep.memo_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "sweep.sink_emit_us", Unit: "us", Better: "lower"},
	{Name: "stats.hist_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.node_add_ns", Unit: "ns", Better: "lower"},

	// Costed in the traced pass of the one workload that exercises the
	// layer (sweepgrid, observed) and 0 on every other: the sweep grid
	// run flat/1 worker, forked/1 worker and flat/N workers, and each
	// observer alone against all observers off.
	{Name: "sweep.fork_speedup", Unit: "x", Better: "higher"},
	{Name: "sweep.parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "sweep.forked_runs", Unit: "count", Better: "higher"},
	{Name: "sweep.prefixes", Unit: "count", Better: "lower"},
	{Name: "trace.on_slowdown_x", Unit: "x", Better: "lower"},
	{Name: "trace.on_mallocs_x", Unit: "x", Better: "lower"},
	{Name: "shareprof.on_slowdown_x", Unit: "x", Better: "lower"},
	{Name: "shareprof.on_mallocs_x", Unit: "x", Better: "lower"},
	{Name: "critpath.on_slowdown_x", Unit: "x", Better: "lower"},
	{Name: "critpath.on_mallocs_x", Unit: "x", Better: "lower"},
	{Name: "metrics.sampler_on_slowdown_x", Unit: "x", Better: "lower"},
	{Name: "metrics.sampler_on_mallocs_x", Unit: "x", Better: "lower"},

	// Traced pass of the workload that ran: self time per span name.
	{Name: "apps.kernel_ms", Unit: "ms", Better: "lower"},
	{Name: "span.apps_new_ms", Unit: "ms", Better: "lower"},
	{Name: "span.apps_setup_ms", Unit: "ms", Better: "lower"},
	{Name: "span.apps_verify_ms", Unit: "ms", Better: "lower"},
	{Name: "span.core_new_machine_ms", Unit: "ms", Better: "lower"},
	{Name: "span.core_run_self_ms", Unit: "ms", Better: "lower"},
	{Name: "span.bench_self_ms", Unit: "ms", Better: "lower"},

	// Estimates (probe cost × model count ÷ wall), labelled as such.
	{Name: "est.msg_path_share", Unit: "ratio", Better: "lower"},
	{Name: "est.sync_share", Unit: "ratio", Better: "lower"},
	{Name: "est.build_share", Unit: "ratio", Better: "lower"},
	{Name: "est.apps_share", Unit: "ratio", Better: "lower"},

	// Host context of the untraced timing.
	{Name: "host.samples", Unit: "count", Better: "higher"},
	{Name: "host.wall_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "host.tail_pct", Unit: "%", Better: "higher"},
	{Name: "host.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "host.gc_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "host.trace_overhead_pct", Unit: "%", Better: "lower"},

	// Model counts: exact sums of Result fields over one iteration. A
	// change meant only to speed up the simulator leaves all of them
	// identical on every workload.
	{Name: "model.sim_time_ms", Unit: "ms", Better: "lower"},
	{Name: "model.msgs", Unit: "count", Better: "lower"},
	{Name: "model.net_mb", Unit: "MB", Better: "lower"},
	{Name: "model.read_faults", Unit: "count", Better: "lower"},
	{Name: "model.write_faults", Unit: "count", Better: "lower"},
	{Name: "model.lock_acquires", Unit: "count", Better: "lower"},
	{Name: "model.barrier_entries", Unit: "count", Better: "lower"},
	{Name: "model.diffs_created", Unit: "count", Better: "lower"},
	{Name: "model.write_notices", Unit: "count", Better: "lower"},
	{Name: "model.retransmits", Unit: "count", Better: "lower"},
	{Name: "model.drift_runs", Unit: "count", Better: "lower"},
}

// perLayer returns every per-layer metric definition.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), fixedLayerDefs...), protoLayerDefs()...)
}

// value is one reported metric reading. Samples holds the per-iteration
// readings it summarizes, where there are any; -compare takes quartiles
// from them.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile returns the highest percentile of n samples that still
// has at least ten samples beyond it, or 50 when n is too small for any
// percentile above the median to qualify.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return 100 * float64(n-10) / float64(n)
}
