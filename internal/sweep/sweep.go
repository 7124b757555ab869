// Package sweep is the parallel experiment engine: it fans independent
// simulation runs out over a host-level worker pool while keeping every
// observable output deterministic.
//
// A sweep is one call of Run. It plans every point before it runs any, so
// a point that cannot run fails the sweep with nothing started and nothing
// written, and then runs each point once. Each run is an independent
// virtual-time simulation (core.Machine holds no per-run state and
// identical configurations produce bit-identical results), so host
// parallelism is free correctness-wise. What the package adds on top is
// the bookkeeping that keeps it *observably* serial:
//
//   - a Sink that writes progress lines, CSV tables and run records under
//     one lock;
//   - ordered release — completed runs are emitted in canonical sweep
//     order regardless of completion order, so the output of a parallel
//     sweep is byte-identical to a serial one;
//   - a single-flight Memo of warmup prefixes, so the fault-grid points
//     that share one simulate it once however many workers want it;
//   - a Registry, the live wall-clock view of a sweep served at /metrics.
package sweep

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/network"
	"dsmsim/internal/sim"
)

// Key identifies one run configuration: one point of the evaluation
// cross-product with its Settings, or an app's sequential baseline. Two
// Keys are the same run iff they are ==, and a sweep lists each run once.
type Key struct {
	// App names a bundled application.
	App string
	// Protocol, Block, Notify, Nodes select the configuration. A
	// Sequential key leaves them zero: core.Config.Validate runs it on one
	// node under SC at the page size.
	Protocol string
	Block    int
	Notify   network.Notify
	Nodes    int
	// Sequential marks the one-node baseline run used as the numerator of
	// speedups (core.Config.Sequential: it still pays for its own lock and
	// barrier messages).
	Sequential bool
	// Fault names the point's variant of the sweep's fault grid
	// (Options.FaultGrid); empty outside grid sweeps. Points differing
	// only in Fault share their entire pre-fault warmup, which is what the
	// fork planner exploits.
	Fault string
	Settings
}

// Settings are the run settings a point may carry beyond its coordinates,
// each overriding the sweep's Config template for that point alone when
// set. Such a point is named by its String and progress line and recorded
// but, like a sequential baseline, has no CSV row. A zero field is left
// out of the record, so a matrix point's record line does not change.
type Settings struct {
	// SoftwareAccessCheck is the per-access cost of an all-software system.
	SoftwareAccessCheck sim.Time `json:",omitempty"`
	// ShareProfile and CritPath attach the sharing-pattern and the
	// critical-path profiler.
	ShareProfile bool `json:",omitempty"`
	CritPath     bool `json:",omitempty"`
	// Faults is the point's own fault plan in the faults.Parse grammar. It
	// replaces both the template's plan and the point's grid variant.
	Faults string `json:",omitempty"`
	// WhatIf is the point's own cost-class rescaling in the
	// critpath.ParseScale grammar ("msg=0.5"). It replaces the template's.
	WhatIf string `json:",omitempty"`
}

// parts spells the settings that are set, one word each.
func (s Settings) parts() []string {
	var p []string
	for _, w := range []struct {
		set  bool
		word string
	}{{s.SoftwareAccessCheck != 0, "check=" + s.SoftwareAccessCheck.String()},
		{s.ShareProfile, "prof"}, {s.CritPath, "crit"}, {s.Faults != "", "faults=" + s.Faults},
		{s.WhatIf != "", "whatif=" + s.WhatIf}} {
		if w.set {
			p = append(p, w.word)
		}
	}
	return p
}

// Seq returns the sequential-baseline key for app.
func Seq(app string) Key { return Key{App: app, Sequential: true} }

func (k Key) String() string {
	if k.Sequential {
		return fmt.Sprintf("%s/seq", k.App)
	}
	s := fmt.Sprintf("%s/%s/%d/%s/%dp", k.App, k.Protocol, k.Block, k.Notify, k.Nodes)
	if k.Fault != "" {
		s += "/" + k.Fault
	}
	for _, p := range k.parts() {
		s += "/" + p
	}
	return s
}

// Spec describes a cross-product of runs: every listed application under
// every protocol × granularity × notification combination. The zero value
// of a list field means "none" — callers fill defaults (the public
// dsmsim.Sweep defaults to the paper's full matrix).
type Spec struct {
	Apps          []string
	Protocols     []string
	Granularities []int
	Notifies      []network.Notify
	// Nodes is the cluster size for every point.
	Nodes int
	// Baselines additionally schedules each app's sequential baseline
	// (before the app's matrix points, so speedups can be derived).
	Baselines bool
	// Faults lists fault-grid variant names (Options.FaultGrid): each
	// matrix point expands into one run per variant, innermost, so a
	// prefix group's points are adjacent in canonical order.
	Faults []string
}

// Points expands the spec in canonical sweep order: for each app (baseline
// first, when requested), protocols × granularities × notification modes,
// each list in the order given. This order defines the deterministic
// output order of a parallel sweep.
func (s Spec) Points() []Key {
	faults := s.Faults
	if len(faults) == 0 {
		faults = []string{""}
	}
	var pts []Key
	for _, app := range s.Apps {
		if s.Baselines {
			pts = append(pts, Seq(app))
		}
		for _, p := range s.Protocols {
			for _, g := range s.Granularities {
				for _, n := range s.Notifies {
					for _, f := range faults {
						pts = append(pts, Key{App: app, Protocol: p, Block: g, Notify: n, Nodes: s.Nodes, Fault: f})
					}
				}
			}
		}
	}
	return pts
}

// Dedupe returns keys with duplicates removed, keeping first occurrences
// (point lists built from several experiments overlap heavily).
func Dedupe(keys []Key) []Key {
	seen := make(map[Key]bool, len(keys))
	out := keys[:0:0]
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Options configures a sweep. It is the one struct every layer above
// core spells run settings in: dsmrun fills it from its flags and the
// public dsmsim.Option functions write into it directly.
type Options struct {
	// Config is the template every run's core.Config starts from: Limit
	// (0 = a generous default), SampleEvery, ShareProfile, CritPath,
	// WhatIf and Faults mean here what they mean there and apply to every
	// non-sequential run of the sweep (Limit and SampleEvery to baselines
	// too). Run fills Nodes, BlockSize, Protocol, Notify and Sequential
	// per Key. Each run compiles its own injector from the plan's seed, so
	// runs stay independent. Trace is a per-run writer parallel runs would
	// interleave on: config clears it for every key but the traced point
	// (a non-sequential key with no Settings), and Run refuses a key set
	// with two traced points.
	Config core.Config
	// Size selects the problem scale for every run.
	Size apps.SizeClass
	// Protocols is the matrix protocol set harness.PointsFor declared the
	// keys over (nil: the paper's); Run only records it.
	Protocols []string
	// Workers bounds host parallelism; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Verify re-checks every run's numeric result against the sequential
	// reference. Always on at Small size (Run sets it).
	Verify bool
	// Progress, if non-nil, receives one line per completed run.
	Progress io.Writer
	// Histograms adds a latency-distribution line after each run's
	// progress line.
	Histograms bool
	// CSV, if non-nil, receives Project's run table, one row per run, in
	// canonical sweep order — byte-identical at any parallelism.
	CSV io.Writer
	// Record, if non-nil, receives every emitted run's Record — baselines
	// included — as one JSON line, in canonical sweep order like the CSV.
	Record io.Writer
	// Metrics, if non-nil, records every point once — its wall-clock
	// runtime and result — for the /metrics exporter. Wall-clock data
	// never reaches the deterministic outputs.
	Metrics *Registry
	// FaultGrid holds the named fault variants grid points select with
	// Key.Fault. When a point carries a Fault name, its variant's plan
	// replaces Config.Faults for that run. With a grid attached, the CSV
	// gains a fault column.
	FaultGrid []FaultVariant
	// Fork shares warmup prefixes across fault-grid points: each group of
	// points differing only in Fault runs its pre-fault prefix once (to a
	// checkpoint at the grid's earliest start barrier) and forks per
	// variant. Output is byte-identical to flat execution; points the
	// checkpointer cannot honor (an ungated plan, a sharing profiler
	// attached) run flat, and points whose cut it refuses re-run flat, both
	// counted in ForkStats. Any other fork error fails the sweep.
	Fork bool
}

// FaultNames lists the fault grid's variant names, in grid order.
func (o Options) FaultNames() (names []string) {
	for _, v := range o.FaultGrid {
		names = append(names, v.Name)
	}
	return names
}

// sweeper is the state of one Run: the options with their defaults
// applied and the declaration they make, each key's planned run, the
// output sink, and the warmup prefixes forked runs share with counters.
type sweeper struct {
	opts    Options
	decl    Declaration
	keys    []Key
	cfgs    []core.Config // each key's, validated
	entries []apps.Entry  // each key's app
	epoch   int           // the barrier every shared prefix is cut at; 0 = no forking
	sink    *Sink
	cps     Memo[cpKey, *warmup]
	// Grid points run flat while Options.Fork was on: flatRuns were
	// never eligible, failedForks had their cut refused first.
	flatRuns, failedForks atomic.Int64
}

// Run runs every key once over the worker pool and returns the records
// its sink wrote, one per key in the order of keys, and what prefix
// sharing bought.
//
// It plans before it runs anything. A fault-grid variant with an empty or
// repeated name fails the sweep, and so does the first key, in the order
// of keys, that is listed twice, would be a second run for the template's
// trace writer, names an unknown app or builds a core.Config that
// Validate refuses: the error names that key, no run has started and
// nothing is written.
//
// Progress, CSV and record lines are emitted in the order of keys
// regardless of completion order. On error — a run's, or a write of its
// output — the remaining runs are cancelled and the first error in
// canonical order is returned, with no records.
func Run(ctx context.Context, opts Options, keys []Key) ([]Record, ForkStats, error) {
	n := len(keys)
	s, err := plan(opts, keys)
	if err != nil {
		return nil, ForkStats{}, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if reg := s.opts.Metrics; reg != nil {
		reg.expect(keys...)
	}
	errs := make([]error, n)

	var (
		mu   sync.Mutex
		next int
		done = make([]bool, n)
		recs = make([]Record, n)
	)
	finish := func(i int, res *core.Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		recs[i], errs[i], done[i] = Record{V: RecordVersion, Declaration: s.decl, Point: keys[i], Result: res}, err, true
		for next < n && done[next] {
			if errs[next] == nil {
				// A lost write is the point's error: its output is incomplete.
				if errs[next] = s.sink.emit(recs[next]); errs[next] != nil {
					cancel()
				}
			}
			next++
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	workers := min(s.opts.Workers, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err := s.runKey(ctx, i)
				if err != nil {
					cancel() // abort the rest of the sweep promptly
				}
				finish(i, res, err)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	// First error in canonical order, preferring a root cause over the
	// context errors that cascade from cancelling the rest of the sweep.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			return nil, s.forkStats(), err
		}
	}
	if firstErr == nil && slices.Contains(done, false) {
		// Cancellation can stop the feed before any run reports an error;
		// an incomplete sweep must still fail.
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, s.forkStats(), firstErr
	}
	return recs, s.forkStats(), nil
}

// plan applies opts' defaults and plans every key of a sweep, in order.
func plan(opts Options, keys []Key) (*sweeper, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	opts.Verify = opts.Verify || opts.Size == apps.Small
	if opts.Config.Limit == 0 {
		opts.Config.Limit = 100000 * sim.Second
	}
	seen := map[string]bool{}
	for _, v := range opts.FaultGrid {
		if v.Name == "" {
			return nil, errors.New("sweep: fault-grid variant with empty name")
		}
		if seen[v.Name] {
			return nil, fmt.Errorf("sweep: duplicate fault-grid variant %q", v.Name)
		}
		seen[v.Name] = true
	}
	s := &sweeper{opts: opts, keys: keys, cfgs: make([]core.Config, len(keys)), entries: make([]apps.Entry, len(keys)),
		decl: Declaration{Size: opts.Size, Faults: opts.Config.Faults.String(), Protocols: opts.Protocols}}
	if w := opts.Config.WhatIf; w != nil {
		s.decl.WhatIf = w.String()
	}
	s.epoch = s.forkEpoch()
	listed := make(map[Key]bool, len(keys))
	var tracing *Key
	for i, k := range keys {
		if listed[k] {
			return nil, fmt.Errorf("sweep: %s is listed twice, and a sweep runs each point once", k)
		}
		listed[k] = true
		if opts.Config.Trace != nil && traced(k) {
			if tracing != nil {
				return nil, fmt.Errorf("sweep: a trace writer traces one run, and this sweep would trace %s and %s", tracing, k)
			}
			tracing = &keys[i]
		}
		var err error
		if s.entries[i], err = apps.Get(k.App); err == nil {
			s.cfgs[i], err = s.config(k)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
	}
	// Progress lines, the run table (a fault column under a grid), records.
	s.sink = NewSink(opts.Progress, opts.CSV, opts.Histograms, nil, nil, nil, false, len(opts.FaultGrid) > 0)
	s.sink.add(&projection{w: opts.Record, render: s.sink.recordLine})
	return s, nil
}

// runKey is the run step of Run's workers: it computes key i's result,
// names the key in its error, and reports the run to the live metrics
// registry when one is attached.
func (s *sweeper) runKey(ctx context.Context, i int) (*core.Result, error) {
	k, reg := s.keys[i], s.opts.Metrics
	var began time.Time
	if reg != nil {
		reg.started(k)
		began = time.Now()
	}
	res, err := s.compute(ctx, i)
	if err != nil {
		err = fmt.Errorf("%s: %w", k, err)
	}
	if reg != nil {
		reg.finished(k, time.Since(began), res)
		if s.opts.Fork {
			reg.setFork(s.forkStats())
		}
	}
	return res, err
}

// traced reports whether k's run writes the template's trace: neither a
// baseline nor a point with settings of its own.
func traced(k Key) bool { return !k.Sequential && k.Settings == Settings{} }

// config fills the template with one point's coordinates, its fault plan
// (planFor) and its settings, and validates it. Validate runs a Sequential
// baseline (whose Key leaves the coordinates zero) at the page size and
// clears the plan and the observers it ignores. Only a traced point keeps
// the trace writer.
func (s *sweeper) config(k Key) (cfg core.Config, err error) {
	cfg = s.opts.Config
	if cfg.Faults, err = s.planFor(k); err != nil {
		return cfg, err
	}
	cfg.Nodes, cfg.BlockSize, cfg.Protocol, cfg.Notify, cfg.Sequential = k.Nodes, k.Block, k.Protocol, k.Notify, k.Sequential
	cfg.SoftwareAccessCheck = cmp.Or(k.SoftwareAccessCheck, cfg.SoftwareAccessCheck)
	cfg.ShareProfile = cfg.ShareProfile || k.ShareProfile
	cfg.CritPath = cfg.CritPath || k.CritPath
	if k.WhatIf != "" {
		if cfg.WhatIf, err = critpath.ParseScale(k.WhatIf); err != nil {
			return cfg, err
		}
	}
	if !traced(k) {
		cfg.Trace = nil
	}
	return cfg, cfg.Validate()
}

// compute executes key i's planned run, through a shared-prefix fork when
// the point is eligible and through the ordinary flat path otherwise.
func (s *sweeper) compute(ctx context.Context, i int) (*core.Result, error) {
	k := s.keys[i]
	app := s.entries[i].New(s.opts.Size)
	if s.epoch > 0 && forkable(k, s.cfgs[i].Faults, s.epoch) {
		res, err := s.computeForked(ctx, i, app)
		if !errors.Is(err, core.ErrNotResumable) {
			return res, err
		}
		// Only a refused cut reruns flat; any other error, a forked result
		// that fails Verify among them, fails the sweep.
		s.failedForks.Add(1)
	} else if s.opts.Fork && k.Fault != "" && !k.Sequential {
		s.flatRuns.Add(1)
	}
	m, err := core.NewMachine(s.cfgs[i])
	if err != nil {
		return nil, err
	}
	res, err := m.RunContext(ctx, app)
	if err != nil {
		return nil, err
	}
	return s.checked(app, res)
}

// checked is the tail of both compute paths: verify the final image when
// the sweep verifies, then give the image back for the next run to draw.
// What Run returns therefore carries no Heap — a sweep's live heap does
// not grow by one image per finished run.
func (s *sweeper) checked(app core.App, res *core.Result) (*core.Result, error) {
	if !s.opts.Verify {
		core.ReleaseImage(res)
	} else if err := core.VerifyAndRelease(app, res); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	return res, nil
}
