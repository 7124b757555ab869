package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"

	"dsmsim"
)

// workload is one fixed list of simulator runs. One iteration executes
// the whole list, one run after another (closed loop, one client); the
// sweep workload makes one dsmsim.Sweep call instead. Iteration counts
// are constants: they are the same on every commit.
type workload struct {
	Name string
	Why  string
	// Iters is the number of timed iterations of a default invocation,
	// Setups the number of untimed set-ups before them (each builds the
	// plan from the seed and runs one iteration; setup_s is their median),
	// Traced the number of extra iterations run under the span recorder.
	Iters, Setups, Traced int
	// SeedDependent marks workloads whose simulated counts depend on
	// -seed; expected.json holds them at seed 1 only.
	SeedDependent bool
	build         func(seed uint64) *plan
}

// runSpec is one single run of a plan.
type runSpec struct {
	ID  string
	App string
	Cfg dsmsim.Config
}

// plan is what one iteration executes: a list of single runs, or one
// sweep. apps lists the distinct applications, for the kernel spans.
// observed, when set, rebuilds the run list with one tuning applied and
// every observer otherwise off; the traced pass uses it to cost each
// observer alone.
type plan struct {
	runs     []runSpec
	sweep    *sweepPlan
	apps     []string
	observed func(tune func(*dsmsim.Config)) *plan
}

// workers is the parallelism of the process and of the sweep workload.
func workers() int { return min(runtime.NumCPU(), 4) }

// matrix expands apps × every registered protocol into single runs.
func matrix(apps, protocols []string, nodes, block int, tune func(*dsmsim.Config)) *plan {
	p := &plan{apps: apps}
	for _, app := range apps {
		for _, proto := range protocols {
			cfg := dsmsim.Config{Nodes: nodes, BlockSize: block, Protocol: proto}
			if tune != nil {
				tune(&cfg)
			}
			p.runs = append(p.runs, runSpec{
				ID: fmt.Sprintf("%s/%s/%d", app, proto, block), App: app, Cfg: cfg,
			})
		}
	}
	return p
}

var barrierApps = []string{"ocean-rowwise", "fft", "barnes-spatial", "water-nsquared", "lu"}

// observedProtocols is the observed workload's protocol list: one
// directory protocol, one LRC protocol and the lease protocol.
var observedProtocols = []string{dsmsim.SC, dsmsim.HLRC, dsmsim.TLC}

var observedApps = []string{"ocean-rowwise", "volrend-original", "lu"}

// observers names the four observers of the observed workload; each
// switches one on in a run's configuration.
var observers = []struct {
	Metric string // prefix of the observer's on-cost metrics
	On     func(*dsmsim.Config)
}{
	{"trace.on", func(c *dsmsim.Config) { c.Trace = io.Discard }},
	{"shareprof.on", func(c *dsmsim.Config) { c.ShareProfile = true }},
	{"critpath.on", func(c *dsmsim.Config) { c.CritPath = true }},
	{"metrics.sampler_on", func(c *dsmsim.Config) { c.SampleEvery = 100 * dsmsim.Microsecond }},
}

// observedPlan is the observed workload's run list with tune applied to
// every configuration.
func observedPlan(tune func(*dsmsim.Config)) *plan {
	return matrix(observedApps, observedProtocols, 16, 256, tune)
}

// workloads returns the benchmark's workloads in reporting order. The
// "why" of each is one line here and a paragraph in README.md.
func workloads() []workload {
	all := dsmsim.AllProtocols()
	return []workload{
		{
			Name: "fine64", Iters: 25, Setups: 3, Traced: 3,
			Why: "64 B blocks: the per-message path (sim dispatch, network fast path, protocol handlers, tag flips) does nearly all the work",
			build: func(uint64) *plan {
				return matrix(barrierApps, all, 16, 64, nil)
			},
		},
		{
			Name: "page4k", Iters: 41, Setups: 3, Traced: 3,
			Why: "4096 B blocks: 4-10x fewer messages, so block copies, HLRC diffs, app kernels, machine build and Verify dominate",
			build: func(uint64) *plan {
				apps := append(append([]string(nil), barrierApps...), "water-spatial", "ocean-original")
				return matrix(apps, all, 16, 4096, nil)
			},
		},
		{
			Name: "locks", Iters: 31, Setups: 3, Traced: 3,
			Why: "lock-based apps at 1024 B: synch lock chains, LRC interval close and write-notice piggyback, task-queue contention",
			build: func(uint64) *plan {
				apps := []string{"barnes-original", "barnes-partree", "volrend-original", "raytrace"}
				return matrix(apps, all, 16, 1024, nil)
			},
		},
		{
			Name: "lossy", Iters: 25, Setups: 3, Traced: 3, SeedDependent: true,
			Why: "1% drop, 0.5% duplicate, 20us jitter at 64 B: every message takes the ARQ path and draws from the fault injector",
			build: func(seed uint64) *plan {
				faults := dsmsim.NewFaultPlan(dsmsim.Drop(0.01), dsmsim.Duplicate(0.005),
					dsmsim.Jitter(20*dsmsim.Microsecond), dsmsim.FaultSeed(seed))
				return matrix([]string{"ocean-rowwise", "fft", "lu"}, all, 16, 64,
					func(c *dsmsim.Config) { c.Faults = faults })
			},
		},
		{
			Name: "observed", Iters: 25, Setups: 3, Traced: 3,
			Why: "trace, sharing profiler, critical-path profiler and sampler all on at 256 B: the on-cost of every observer hook",
			build: func(uint64) *plan {
				p := observedPlan(func(c *dsmsim.Config) {
					for _, o := range observers {
						o.On(c)
					}
				})
				p.observed = observedPlan
				return p
			},
		},
		{
			Name: "scale1024", Iters: 6, Setups: 1, Traced: 1,
			Why: "1024 nodes at 4096 B: per-node metadata (vector clocks, interval logs, notice fan-out, sparse tables, 1024-way barriers)",
			build: func(uint64) *plan {
				return matrix([]string{"lu", "fft"}, all, 1024, 4096, nil)
			},
		},
		{
			Name: "sweepgrid", Iters: 25, Setups: 3, Traced: 3, SeedDependent: true,
			Why: "one forked, parallel 240-run fault-grid Sweep: the only user of the sweep planner, memo, sink and core.Checkpoint, and of more than one core",
			build: func(seed uint64) *plan {
				return &plan{sweep: newSweepPlan(seed, all), apps: sweepApps}
			},
		},
	}
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sweepApps are both ResumableApps, so every grid run can fork.
var sweepApps = []string{"ocean-rowwise", "lu"}

// sweepStartBarrier is the barrier at which every fault variant of the
// grid arms; the prefix before it is what forking shares.
const sweepStartBarrier = 12

// sweepPlan is the sweepgrid workload: apps × protocols × {256, 4096} ×
// 12 fault variants ("none" and 11 seeded 2 % drop plans).
type sweepPlan struct {
	spec dsmsim.SweepSpec
	grid []dsmsim.FaultVariant
	runs int
}

func newSweepPlan(seed uint64, protocols []string) *sweepPlan {
	grid := []dsmsim.FaultVariant{{Name: "none"}}
	for i := uint64(1); i <= 11; i++ {
		grid = append(grid, dsmsim.FaultVariant{
			Name: fmt.Sprintf("s%d", i),
			Plan: dsmsim.NewFaultPlan(dsmsim.Drop(0.02), dsmsim.FaultSeed(seed+i),
				dsmsim.StartAtBarrier(sweepStartBarrier)),
		})
	}
	blocks := []int{256, 4096}
	return &sweepPlan{
		spec: dsmsim.SweepSpec{
			Apps: sweepApps, Protocols: protocols, Granularities: blocks,
			Nodes: 16, Size: dsmsim.Small, SkipBaselines: true,
		},
		grid: grid,
		runs: len(sweepApps) * len(protocols) * len(blocks) * len(grid),
	}
}

// lineCounter is the CSV sink of the sweep workload: it discards the
// bytes and counts the records, so the sink does its formatting work and
// the benchmark can check that every run was emitted.
type lineCounter struct{ lines int }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// run makes one Sweep call and checks its own work: one CSV record per
// run and, when forking, every run forked.
func (sp *sweepPlan) run(ctx context.Context, fork bool, nworkers int) (*dsmsim.SweepResult, error) {
	var csv lineCounter
	opts := []dsmsim.Option{dsmsim.WithFaultGrid(sp.grid...), dsmsim.WithParallelism(nworkers),
		dsmsim.WithCSV(&csv), dsmsim.WithVerify()}
	if fork {
		opts = append(opts, dsmsim.WithFork())
	}
	res, err := dsmsim.Sweep(ctx, sp.spec, opts...)
	if err != nil {
		return nil, err
	}
	if len(res.Runs) != sp.runs || csv.lines != sp.runs+1 {
		return nil, fmt.Errorf("sweep made %d runs and %d CSV lines, want %d and %d",
			len(res.Runs), csv.lines, sp.runs, sp.runs+1)
	}
	if fork && res.Fork.ForkedRuns != sp.runs {
		return nil, fmt.Errorf("sweep forked %d of %d runs", res.Fork.ForkedRuns, sp.runs)
	}
	return res, nil
}

// fingerprint is the simulated outcome of one run. The simulator is
// deterministic, so a run's fingerprint is the same in every iteration.
type fingerprint [7]int64

func fingerprintOf(r *dsmsim.Result) fingerprint {
	return fingerprint{int64(r.Time), r.NetMsgs, r.NetBytes,
		r.Total.ReadFaults, r.Total.WriteFaults, r.Total.LockAcquires, r.Retransmits}
}

// modelCounts are exact sums of Result fields over one iteration.
type modelCounts struct {
	SimTimeNS, Msgs, NetBytes               int64
	ReadFaults, WriteFaults                 int64
	LockAcquires, BarrierEntries            int64
	DiffsCreated, WriteNotices, Retransmits int64
}

func (m *modelCounts) add(r *dsmsim.Result) {
	m.SimTimeNS += int64(r.Time)
	m.Msgs += r.NetMsgs
	m.NetBytes += r.NetBytes
	m.ReadFaults += r.Total.ReadFaults
	m.WriteFaults += r.Total.WriteFaults
	m.LockAcquires += r.Total.LockAcquires
	m.BarrierEntries += r.Total.BarrierEntries
	m.DiffsCreated += r.Total.DiffsCreated
	m.WriteNotices += r.Total.WriteNoticesSent
	m.Retransmits += r.Retransmits
}

// runStat is what the share estimates need to know about one run.
type runStat struct {
	App, Protocol       string
	Nodes               int
	Msgs, Locks, Epochs int64 // Epochs: barrier episodes (entries ÷ nodes)
}

// iterResult is the outcome of one iteration: per run, its id, its
// fingerprint and its error (nil when the run completed and verified).
type iterResult struct {
	ids    []string
	prints []fingerprint
	errs   []error
	stats  []runStat
	model  modelCounts
}

func (it *iterResult) record(id string, res *dsmsim.Result, err error) {
	it.ids = append(it.ids, id)
	it.errs = append(it.errs, err)
	if err != nil {
		it.prints = append(it.prints, fingerprint{})
		return
	}
	it.prints = append(it.prints, fingerprintOf(res))
	it.model.add(res)
	it.stats = append(it.stats, runStat{App: res.App, Protocol: res.Protocol, Nodes: res.Nodes,
		Msgs: res.NetMsgs, Locks: res.Total.LockAcquires,
		Epochs: res.Total.BarrierEntries / int64(res.Nodes)})
}

// iterate executes the plan once. With a recorder it wraps every call it
// makes in a span under root; with none it goes through dsmsim.Start.
// onRun, if set, is called at every run boundary.
func (p *plan) iterate(ctx context.Context, rec *recorder, root int, onRun func()) *iterResult {
	it := &iterResult{}
	if p.sweep != nil {
		s := rec.begin(spanSweep, root, -1)
		res, err := p.sweep.run(ctx, true, workers())
		rec.end(s)
		if err != nil {
			// The whole grid failed: every run of it counts.
			for i := 0; i < p.sweep.runs; i++ {
				it.record(fmt.Sprintf("sweep#%d", i), nil, err)
			}
			return it
		}
		for _, run := range res.Runs {
			it.record(run.Point.String(), run.Result, nil)
		}
		if onRun != nil {
			onRun()
		}
		return it
	}
	for i, rs := range p.runs {
		res, err := runOne(ctx, rs, rec, root, i)
		it.record(rs.ID, res, err)
		if onRun != nil {
			onRun()
		}
	}
	return it
}

// runOne executes one run with verification on. Untraced, it is the call
// a user makes; traced, it is the same steps made one by one with a span
// around each.
func runOne(ctx context.Context, rs runSpec, rec *recorder, parent, runID int) (*dsmsim.Result, error) {
	if rec == nil {
		app, err := dsmsim.NewApp(rs.App, dsmsim.Small)
		if err != nil {
			return nil, err
		}
		return dsmsim.Start(ctx, rs.Cfg, app, dsmsim.WithVerify())
	}
	run := rec.begin(spanRun, parent, runID)
	defer rec.end(run)

	s := rec.begin(spanAppsNew, run, runID)
	app, err := dsmsim.NewApp(rs.App, dsmsim.Small)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin(spanNewMachine, run, runID)
	m, err := dsmsim.NewMachine(rs.Cfg)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin(spanCoreRun, run, runID)
	res, err := m.RunContext(ctx, &tracedApp{App: app, rec: rec, parent: s, run: runID})
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin(spanAppsVerify, run, runID)
	err = app.Verify(res.Heap)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s verify: %w", rs.ID, err)
	}
	return res, nil
}

// tracedApp records the application's Setup as a child of core.run.
type tracedApp struct {
	dsmsim.App
	rec         *recorder
	parent, run int
}

func (a *tracedApp) Setup(h *dsmsim.Heap) {
	s := a.rec.begin(spanAppsSetup, a.parent, a.run)
	a.App.Setup(h)
	a.rec.end(s)
}

// kernels runs each application once with no protocol at all (the
// sequential baseline configuration) under an apps.kernel span and
// returns the host time of each in ns.
func kernels(ctx context.Context, rec *recorder, apps []string) (map[string]int64, error) {
	out := map[string]int64{}
	for _, name := range apps {
		app, err := dsmsim.NewApp(name, dsmsim.Small)
		if err != nil {
			return nil, err
		}
		m, err := dsmsim.NewMachine(dsmsim.Config{Sequential: true, BlockSize: 4096})
		if err != nil {
			return nil, err
		}
		s := rec.begin(spanAppsKernel, -1, -1)
		_, err = m.RunContext(ctx, app)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", name, err)
		}
		out[name] = rec.duration(s)
	}
	return out, nil
}
