// Package harness regenerates every table and figure of the paper's
// evaluation (§5): the speedup curves of Figure 1 and Figure 2, the
// classification of Table 2, the per-application fault-count tables, the
// Barnes data-traffic comparison, and the relative-efficiency harmonic
// means of Tables 16 and 17.
//
// All runs go through the sweep engine (internal/sweep): results are
// memoized so experiments share them (the fault tables reuse Figure 1's
// runs, for example), progress and CSV output is written under one lock in
// canonical order, and Prefetch fans an experiment's whole point set out over a
// worker pool before the table renders — with output identical, byte for
// byte, to fully serial execution.
package harness

import (
	"context"
	"fmt"
	"io"
	"sort"

	"dsmsim"
	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
	"dsmsim/internal/sweep"
)

// Options configures a Runner: the sweep engine's settings — problem
// size, verification, workers, the per-run core.Config template, the
// progress and CSV writers, the fault grid — plus the three of its own.
// The engine's settings apply to the matrix runs; the extension
// experiments (degradation, sharing, critpath, …) build their own
// out-of-matrix configurations and always attach the observer they
// report on. Under a FaultGrid the tables render the FIRST variant's
// runs while every variant reaches the progress and CSV streams.
type Options struct {
	sweep.Options
	// Nodes is the cluster size (the paper uses 16).
	Nodes int
	// Out receives the rendered tables.
	Out io.Writer
	// Protocols overrides the protocol set the matrix experiments sweep
	// and render. Nil keeps the paper's three-protocol reproduction
	// matrix (proto.PaperNames); any registered name is accepted — see
	// proto.Names for the registry's catalog.
	Protocols []string
}

// protocols resolves the runner's protocol set: the override when given,
// the paper's reproduction matrix otherwise.
func (o Options) protocols() []string {
	if len(o.Protocols) > 0 {
		return o.Protocols
	}
	return proto.PaperNames()
}

// Runner executes and caches simulation runs via the sweep engine.
type Runner struct {
	opts Options
	eng  *sweep.Engine
}

// New creates a Runner.
func New(opts Options) (*Runner, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 16
	}
	eng, err := sweep.New(opts.Options)
	if err != nil {
		return nil, err
	}
	opts.Options = eng.Options()
	return &Runner{opts: opts, eng: eng}, nil
}

// key builds the sweep key for one configuration at this runner's scale.
// Under a fault grid, tables consume the first variant's runs.
func (r *Runner) key(app, proto string, block int, notify network.Notify) sweep.Key {
	k := sweep.Key{App: app, Protocol: proto, Block: block, Notify: notify, Nodes: r.opts.Nodes}
	if len(r.opts.FaultGrid) > 0 {
		k.Fault = r.opts.FaultGrid[0].Name
	}
	return k
}

// ForkStats reports the engine's prefix-sharing counters (zero unless
// Options.Fork engaged).
func (r *Runner) ForkStats() sweep.ForkStats { return r.eng.ForkStats() }

// Sequential returns the uninstrumented one-node baseline time for app.
func (r *Runner) Sequential(app string) (sim.Time, error) {
	res, err := r.eng.RunOne(context.Background(), sweep.Seq(app))
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// Result runs (or returns the memoized run of) one configuration.
func (r *Runner) Result(app, proto string, block int, notify network.Notify) (*core.Result, error) {
	return r.eng.RunOne(context.Background(), r.key(app, proto, block, notify))
}

// Prefetch computes every key over the runner's worker pool, filling the
// memo so subsequent Result/Sequential calls are cache hits. Progress and
// CSV records are emitted in the order of keys regardless of completion
// order, so a parallel prefetch is byte-identical to a serial one.
func (r *Runner) Prefetch(ctx context.Context, keys []sweep.Key) error {
	_, err := r.eng.Run(ctx, sweep.Dedupe(keys))
	return err
}

// Speedup returns T_seq / T_par for one configuration.
func (r *Runner) Speedup(app, proto string, block int, notify network.Notify) (float64, error) {
	seq, err := r.Sequential(app)
	if err != nil {
		return 0, err
	}
	res, err := r.Result(app, proto, block, notify)
	if err != nil {
		return 0, err
	}
	return float64(seq) / float64(res.Time), nil
}

// runConfig executes an out-of-matrix configuration of app (custom node
// counts, software access checks, a run's own fault plan or profiler): cfg
// says what differs from the runner's scale — zero Nodes means the
// runner's, Limit is always the runner's — and runs under the runner's
// verify policy through the public Start entrypoint. These runs are not
// memoized, and the engine's Config template does not apply to them.
func (r *Runner) runConfig(app string, cfg core.Config) (*core.Result, error) {
	entry, err := apps.Get(app)
	if err != nil {
		return nil, err
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = r.opts.Nodes
	}
	cfg.Limit = r.opts.Config.Limit
	return dsmsim.Start(context.Background(), cfg, entry.New(r.opts.Size), dsmsim.WithVerify(r.opts.Verify))
}

// progress emits one custom progress line through the engine's sink.
func (r *Runner) progress(format string, args ...any) { r.eng.Sink().Logf(format, args...) }

func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.opts.Out, format, args...)
}

// harmonicMean returns the harmonic mean of xs.
func harmonicMean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += 1 / x
	}
	return float64(len(xs)) / s
}

// Experiment names one regenerable table or figure.
type Experiment struct {
	Name string
	Desc string
	// Points lists the matrix runs the experiment will consume, for
	// parallel prefetch; nil for experiments built from out-of-matrix
	// configurations alone (a run's own fault plan or profiler).
	Points func(o Options) []sweep.Key
	// Run renders the experiment (drawing on prefetched runs when the
	// caller prefetched; computing serially otherwise).
	Run func(r *Runner) error
}

// Get returns the named experiment.
func Get(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", name, names)
}

// PointsFor unions (and dedupes) the prefetchable point sets of the given
// experiments, preserving experiment order — the deterministic emission
// order of a prefetch covering them.
func PointsFor(o Options, exps []Experiment) []sweep.Key {
	var pts []sweep.Key
	for _, e := range exps {
		if e.Points != nil {
			pts = append(pts, e.Points(o)...)
		}
	}
	return sweep.Dedupe(pts)
}
