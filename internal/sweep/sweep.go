// Package sweep is the parallel experiment engine: it fans independent
// simulation runs out over a host-level worker pool while keeping every
// observable output deterministic.
//
// Each run is an independent virtual-time simulation (core.Machine holds no
// per-run state and identical configurations produce bit-identical
// results), so host parallelism is free correctness-wise. What the package
// adds on top is the bookkeeping that keeps it *observably* serial:
//
//   - a single-flight Memo so each configuration runs exactly once no
//     matter how many experiments or workers want it;
//   - a Sink that writes progress lines, CSV tables and run records under
//     one lock;
//   - ordered release — completed runs are emitted in canonical sweep
//     order regardless of completion order, so the output of a parallel
//     sweep is byte-identical to a serial one;
//   - a Registry, the live wall-clock view of a sweep served at /metrics.
package sweep

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
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
// cross-product with its Settings, or an app's sequential baseline. It is
// the memoization key, so two Keys are the same run iff they are ==.
type Key struct {
	// App names a bundled application.
	App string
	// Protocol, Block, Notify, Nodes select the configuration. All are
	// ignored (and should be zero) when Sequential is set.
	Protocol string
	Block    int
	Notify   network.Notify
	Nodes    int
	// Sequential marks the uninstrumented one-node baseline run used as
	// the numerator of speedups.
	Sequential bool
	// Fault names the point's variant of the engine's fault grid
	// (Options.FaultGrid); empty outside grid sweeps. Points differing
	// only in Fault share their entire pre-fault warmup, which is what the
	// fork planner exploits.
	Fault string
	Settings
}

// Settings are the run settings a point may carry beyond its coordinates,
// each overriding the engine's Config template for that point alone when
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
// (prefetch lists built from several experiments overlap heavily).
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

// Options configures an Engine. It is the one struct every layer above
// core spells run settings in: harness.Options embeds it and the public
// dsmsim.Option functions write into it directly.
type Options struct {
	// Config is the template every run's core.Config starts from: Limit
	// (0 = a generous default), SampleEvery, ShareProfile, CritPath,
	// WhatIf and Faults mean here what they mean there and apply to every
	// non-sequential run of the sweep (Limit and SampleEvery to baselines
	// too). The engine fills Nodes, BlockSize, Protocol, Notify and
	// Sequential per Key. Each run compiles its own injector from the
	// plan's seed, so runs stay independent. Trace is a per-run writer
	// parallel runs would interleave on: config clears it for every key but
	// the traced point (a non-sequential key with no Settings), and Run
	// refuses a key set that would trace two distinct points.
	Config core.Config
	// Size selects the problem scale for every run.
	Size apps.SizeClass
	// Workers bounds host parallelism; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Verify re-checks every run's numeric result against the sequential
	// reference. Always on at Small size (New sets it).
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

// Engine runs sweeps. It owns the memo and the output sink, so one Engine
// shared across many sweeps (the harness Runner holds one for all its
// experiments) never repeats a run and never interleaves output.
type Engine struct {
	opts Options
	memo Memo[Key, *core.Result]
	cps  Memo[cpKey, *warmup] // shared warmup prefixes
	sink *Sink
	// Grid points computed flat while Options.Fork was on: flatRuns were
	// never eligible, failedForks had their cut refused first.
	flatRuns, failedForks atomic.Int64
}

// New builds an Engine from opts. It is the one place the rules between
// settings live: fault-grid variants need distinct, non-empty names
// (points select them by name).
func New(opts Options) (*Engine, error) {
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
	// Progress lines, the run table (a fault column under a grid), records.
	sink := NewSink(opts.Progress, opts.CSV, opts.Histograms, nil, nil, nil, false, len(opts.FaultGrid) > 0)
	sink.add(&projection{w: opts.Record, render: sink.recordLine})
	return &Engine{opts: opts, sink: sink}, nil
}

// Options returns the settings the engine runs under, defaults applied.
func (e *Engine) Options() Options { return e.opts }

// runKey is the memoized run step of Run's workers: it computes (or
// waits for) the key's result, names the key in its error, and reports
// the lookup to the live metrics registry when one is attached.
func (e *Engine) runKey(ctx context.Context, k Key) (*core.Result, error, bool) {
	reg := e.opts.Metrics
	var began time.Time
	if reg != nil {
		reg.started(k)
		began = time.Now()
	}
	res, err, fresh := e.memo.Do(k, func() (*core.Result, error) { return e.compute(ctx, k) })
	if err != nil {
		err = fmt.Errorf("%s: %w", k, err)
	}
	if reg != nil {
		reg.finished(k, time.Since(began), res, fresh)
		if e.opts.Fork {
			reg.setFork(e.ForkStats())
		}
	}
	return res, err, fresh
}

// RunOne is Run of one key: the (memoized) result, its progress line and
// records emitted if this call computed it. A failed write fails it.
func (e *Engine) RunOne(ctx context.Context, k Key) (*core.Result, error) {
	res, err := e.Run(ctx, []Key{k})
	return res[0], err
}

// Run executes every key over the worker pool and returns results aligned
// with keys. Progress/CSV emission happens in the order of keys regardless
// of completion order, and only for keys whose computation this sweep
// performed (cache hits stay silent, exactly like the serial path). On
// error — a run's, or a write of its output — the remaining runs are
// cancelled and the first error in canonical order is returned; results
// computed before the failure are still returned and cached. A Run that
// would trace two runs (traced) fails before it starts any.
func (e *Engine) Run(ctx context.Context, keys []Key) ([]*core.Result, error) {
	if err := e.oneTraced(keys); err != nil {
		return make([]*core.Result, len(keys)), err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if reg := e.opts.Metrics; reg != nil {
		reg.expect(keys...)
	}
	n := len(keys)
	results := make([]*core.Result, n)
	errs := make([]error, n)
	emitted := make([]bool, n) // fresh computations awaiting ordered emission

	var (
		mu   sync.Mutex
		next int
		done = make([]bool, n)
	)
	finish := func(i int, res *core.Result, err error, fresh bool) {
		mu.Lock()
		defer mu.Unlock()
		results[i], errs[i], done[i], emitted[i] = res, err, true, fresh
		for next < n && done[next] {
			if errs[next] == nil && emitted[next] {
				// A lost write is the point's error: its output is incomplete.
				if errs[next] = e.sink.Emit(keys[next], results[next]); errs[next] != nil {
					cancel()
				}
			}
			next++
		}
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	workers := min(e.opts.Workers, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err, fresh := e.runKey(ctx, keys[i])
				if err != nil {
					cancel() // abort the rest of the sweep promptly
				}
				finish(i, res, err, fresh)
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
			return results, err
		}
	}
	if firstErr == nil {
		// Cancellation can stop the feed before any run reports an error;
		// an incomplete sweep must still fail.
		for _, d := range done {
			if !d {
				firstErr = ctx.Err()
				break
			}
		}
	}
	return results, firstErr
}

// traced reports whether k's run writes the template's trace: neither a
// baseline nor a point with settings of its own.
func traced(k Key) bool { return !k.Sequential && k.Settings == Settings{} }

// oneTraced refuses a Run that would trace two distinct runs into the
// template's trace writer.
func (e *Engine) oneTraced(keys []Key) error {
	var first *Key
	for i, k := range keys {
		switch {
		case e.opts.Config.Trace == nil, !traced(k):
		case first == nil:
			first = &keys[i]
		case *first != k:
			return fmt.Errorf("sweep: a trace writer traces one run, and this sweep would trace %s and %s", first, k)
		}
	}
	return nil
}

// config fills the template with one point's coordinates, its fault plan
// (planFor) and its settings. Sequential baselines (whose Key leaves the
// coordinates zero) run at the page size; Validate clears the plan and the
// observers they ignore. Only a traced point keeps the trace writer.
func (e *Engine) config(k Key) (cfg core.Config, err error) {
	cfg = e.opts.Config
	if cfg.Faults, err = e.planFor(k); err != nil {
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
	if k.Sequential {
		cfg.BlockSize = 4096
	}
	return cfg, nil
}

// compute executes one run, through a shared-prefix fork when the point is
// eligible and through the ordinary flat path otherwise.
func (e *Engine) compute(ctx context.Context, k Key) (*core.Result, error) {
	entry, err := apps.Get(k.App)
	if err != nil {
		return nil, err
	}
	cfg, err := e.config(k)
	if err != nil {
		return nil, err
	}
	app := entry.New(e.opts.Size)
	if epoch := e.forkEpoch(); epoch > 0 && forkable(k, cfg.Faults, epoch) {
		res, err := e.computeForked(ctx, k, cfg, app, epoch)
		if !errors.Is(err, core.ErrNotResumable) {
			return res, err
		}
		// Only a refused cut reruns flat; any other error, a forked result
		// that fails Verify among them, fails the sweep.
		e.failedForks.Add(1)
	} else if e.opts.Fork && k.Fault != "" && !k.Sequential {
		e.flatRuns.Add(1)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.RunContext(ctx, app)
	if err != nil {
		return nil, err
	}
	return e.checked(app, res)
}

// checked is the tail of both compute paths: verify the final image when
// the sweep verifies, then give the image back for the next run to draw.
// What the memo retains and Run returns therefore carries no Heap — a
// sweep's live heap does not grow by one image per finished run.
func (e *Engine) checked(app core.App, res *core.Result) (*core.Result, error) {
	defer core.ReleaseImage(res)
	if e.opts.Verify {
		if err := app.Verify(res.Heap); err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
	}
	return res, nil
}
