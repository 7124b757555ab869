package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"dsmsim/internal/proto"
)

// measureOpts sizes one measurement. Budget, when positive, replaces the
// workload's constant iteration count: timed iterations repeat until it
// is spent (the driver's -seconds).
type measureOpts struct {
	Seed          uint64
	Budget        time.Duration
	Iters, Setups int
	Traced        int // 0 skips the traced pass
}

// minTimedIters is the floor of a time-budgeted measurement: fewer
// samples than this have no median worth reporting.
const minTimedIters = 3

// measurement is everything one workload's passes produced.
type measurement struct {
	w    workload
	plan *plan
	ref  *iterResult // iteration 0: the reference every later one must match

	setupS                   []float64
	wallMS, allocMB, mallocs []float64
	heapPeakMB, gcCPUPct     float64

	attempted, failed int
	failures          []string // first few, for the report

	tracedWallMS []float64
	selfMS       map[string][]float64 // span name → self time of each traced iteration
	kernelMS     map[string]float64   // app → host time with no protocol
	extra        map[string]float64   // layer metrics only this workload exercises
	drift        int
}

// maxReportedFailures bounds the failure messages kept for the report.
const maxReportedFailures = 5

// account checks one iteration against the reference and counts its runs.
func (m *measurement) account(it *iterResult) {
	for i, err := range it.errs {
		m.attempted++
		switch {
		case err != nil:
		case i >= len(m.ref.ids) || it.ids[i] != m.ref.ids[i] || it.prints[i] != m.ref.prints[i]:
			err = fmt.Errorf("%s: simulated fingerprint %v differs from iteration 0", it.ids[i], it.prints[i])
		default:
			continue
		}
		m.failed++
		if len(m.failures) < maxReportedFailures {
			m.failures = append(m.failures, err.Error())
		}
	}
}

var heapMetrics = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

// observeHeap samples heap objects + unused at a run boundary and keeps
// the maximum.
func (m *measurement) observeHeap() {
	metrics.Read(heapMetrics)
	mb := float64(heapMetrics[0].Value.Uint64()+heapMetrics[1].Value.Uint64()) / 1e6
	m.heapPeakMB = max(m.heapPeakMB, mb)
}

// gcCPU returns the process's GC and total CPU seconds so far.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// measure runs one workload: its set-ups, its timed untraced iterations
// and, if asked, its traced iterations under rec.
func measure(ctx context.Context, w workload, o measureOpts, rec *recorder) (*measurement, error) {
	m := &measurement{w: w, selfMS: map[string][]float64{}, kernelMS: map[string]float64{}}

	// Set-up: build the plan from the seed and run it once, cold. The
	// first set-up's outcome is iteration 0.
	for i := 0; i < o.Setups; i++ {
		t0 := time.Now()
		m.plan = w.build(o.Seed)
		it := m.plan.iterate(ctx, nil, -1, nil)
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		if m.ref == nil {
			m.ref = it
		}
		m.account(it)
	}
	if m.ref == nil {
		return nil, fmt.Errorf("%s: no set-up iteration", w.Name)
	}

	// Timed iterations, tracing off.
	gc0, cpu0 := gcCPU()
	var before, after runtime.MemStats
	start := time.Now()
	for i := 0; ; i++ {
		if o.Budget > 0 {
			if i >= minTimedIters && time.Since(start) >= o.Budget {
				break
			}
		} else if i >= o.Iters {
			break
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		it := m.plan.iterate(ctx, nil, -1, m.observeHeap)
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		m.wallMS = append(m.wallMS, float64(wall)/1e6)
		m.allocMB = append(m.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		m.mallocs = append(m.mallocs, float64(after.Mallocs-before.Mallocs))
		m.account(it)
	}
	gc1, cpu1 := gcCPU()
	if cpu1 > cpu0 {
		m.gcCPUPct = 100 * (gc1 - gc0) / (cpu1 - cpu0)
	}

	// Traced iterations: the same plan with a span around every call.
	for i := 0; i < o.Traced; i++ {
		root := rec.begin(spanIteration, -1, -1)
		it := m.plan.iterate(ctx, rec, root, nil)
		rec.end(root)
		m.account(it)
		m.tracedWallMS = append(m.tracedWallMS, float64(rec.duration(root))/1e6)
		for name, ns := range rec.selfTimes(root) {
			m.selfMS[name] = append(m.selfMS[name], float64(ns)/1e6)
		}
		ks, err := kernels(ctx, rec, m.plan.apps)
		if err != nil {
			return nil, err
		}
		for app, ns := range ks {
			// Keep the fastest: the kernel is deterministic work, so
			// the minimum is the reading least disturbed by the host.
			if ms := float64(ns) / 1e6; m.kernelMS[app] == 0 || ms < m.kernelMS[app] {
				m.kernelMS[app] = ms
			}
		}
	}

	if o.Traced > 0 {
		// The layers only this workload exercises are costed here, not
		// with the probes: on every other workload they do not run.
		var err error
		switch {
		case m.plan.sweep != nil:
			m.extra, err = sweepVariants(ctx, rec, m.plan.sweep)
		case m.plan.observed != nil:
			m.extra, err = observerCosts(ctx, m.plan.observed)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}

	m.drift = m.driftRuns(o.Seed)
	return m, nil
}

// endToEnd reports the workload's end-to-end metrics.
func (m *measurement) endToEnd() map[string]value {
	wall := median(m.wallMS)
	return map[string]value{
		"setup_s":        {Value: median(m.setupS), Unit: "s", Samples: m.setupS},
		"wall_ms_p50":    {Value: wall, Unit: "ms", Samples: m.wallMS},
		"sim_msgs_per_s": {Value: float64(m.ref.model.Msgs) / (wall / 1e3), Unit: "msgs/s", Samples: perSecond(m.ref.model.Msgs, m.wallMS)},
		// Means, not medians: whether a run reuses the previous run's
		// pooled mem.Space slabs depends on when the GC last cleared
		// sync.Pool, so iterations fall into two modes a few percent
		// apart and a median flips between them from one invocation to
		// the next. Nothing outside the process disturbs an allocation
		// count, so the mean needs no protection from outliers.
		"alloc_mb_per_iter": {Value: mean(m.allocMB), Unit: "MB", Samples: m.allocMB},
		"mallocs_per_iter":  {Value: mean(m.mallocs), Unit: "count", Samples: m.mallocs},
	}
}

// perSecond turns per-iteration wall times into count-per-second rates.
func perSecond(count int64, wallMS []float64) []float64 {
	out := make([]float64, len(wallMS))
	for i, ms := range wallMS {
		out[i] = float64(count) / (ms / 1e3)
	}
	return out
}

// usesIntervals reports whether a protocol closes intervals and carries
// vector clocks at synchronization (the LRC family).
func usesIntervals(name string) bool {
	reg, ok := proto.Lookup(name)
	return ok && reg.Meta.NeedsClocks
}

// workloadLayer reports the per-layer metrics that belong to the workload
// that ran: span self times, host context, model counts and the share
// estimates, which combine the workload's counts with the probes' costs.
func (m *measurement) workloadLayer(p *probeSet) map[string]float64 {
	probes := p.vals
	out := map[string]float64{}
	for name, v := range m.extra {
		out[name] = v
	}
	wall := median(m.wallMS)

	// Span self times, median over the traced iterations. The sweep
	// workload's single Sweep call stands where core.run stands for the
	// others: the engine makes the per-run calls itself.
	self := func(name string) float64 { return median(m.selfMS[name]) }
	out["span.apps_new_ms"] = self(spanAppsNew)
	out["span.apps_setup_ms"] = self(spanAppsSetup)
	out["span.apps_verify_ms"] = self(spanAppsVerify)
	out["span.core_new_machine_ms"] = self(spanNewMachine)
	out["span.core_run_self_ms"] = self(spanCoreRun) + self(spanSweep)
	out["span.bench_self_ms"] = self(spanIteration) + self(spanRun)
	var kernel float64
	for _, ms := range m.kernelMS {
		kernel += ms
	}
	out["apps.kernel_ms"] = kernel

	// Host context.
	pct := tailPercentile(len(m.wallMS))
	out["host.samples"] = float64(len(m.wallMS))
	out["host.tail_pct"] = pct
	out["host.wall_ms_tail"] = quantile(m.wallMS, pct/100)
	out["host.heap_peak_mb"] = m.heapPeakMB
	out["host.gc_cpu_pct"] = m.gcCPUPct
	if wall > 0 && len(m.tracedWallMS) > 0 {
		out["host.trace_overhead_pct"] = 100 * (median(m.tracedWallMS)/wall - 1)
	}

	// Model counts of one iteration.
	c := m.ref.model
	out["model.sim_time_ms"] = float64(c.SimTimeNS) / 1e6
	out["model.msgs"] = float64(c.Msgs)
	out["model.net_mb"] = float64(c.NetBytes) / 1e6
	out["model.read_faults"] = float64(c.ReadFaults)
	out["model.write_faults"] = float64(c.WriteFaults)
	out["model.lock_acquires"] = float64(c.LockAcquires)
	out["model.barrier_entries"] = float64(c.BarrierEntries)
	out["model.diffs_created"] = float64(c.DiffsCreated)
	out["model.write_notices"] = float64(c.WriteNotices)
	out["model.retransmits"] = float64(c.Retransmits)
	out["model.drift_runs"] = float64(m.drift)

	// Share estimates: a probe's cost per operation times the workload's
	// count of that operation, over the host time available (the sweep
	// workload has one wall clock but several workers).
	var msgNS, syncNS, buildNS, appsNS float64
	for _, r := range m.ref.stats {
		msgNS += float64(r.Msgs) * probes["network.send_ns"]
		lock, barrier16, barrier1024 := probes["synch.lock_handoff_ns"],
			p.aux["synch.barrier_16n_ns"+auxDirectory], p.aux["synch.barrier_1024n_us"+auxDirectory]
		if usesIntervals(r.Protocol) {
			lock, barrier16, barrier1024 = probes["synch.lock_handoff_lrc_ns"],
				probes["synch.barrier_16n_ns"], probes["synch.barrier_1024n_us"]
		}
		barrier, build := barrier16, probes["core.build_16n_us"]*1e3
		if r.Nodes == 1024 {
			barrier = barrier1024 * 1e3
			build = probes["proto."+r.Protocol+".build_1024n_ms"] * 1e6
		}
		syncNS += float64(r.Locks)*lock + float64(r.Epochs)*barrier
		buildNS += build
		appsNS += m.kernelMS[r.App] * 1e6
	}
	appsNS += (out["span.apps_new_ms"] + out["span.apps_verify_ms"]) * 1e6
	avail := wall * 1e6
	if m.plan.sweep != nil {
		avail *= float64(workers())
	}
	if avail > 0 {
		out["est.msg_path_share"] = msgNS / avail
		out["est.sync_share"] = syncNS / avail
		out["est.build_share"] = buildNS / avail
		out["est.apps_share"] = appsNS / avail
	}
	return out
}
