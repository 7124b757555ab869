// Package harness regenerates every table and figure of the paper's
// evaluation (§5): the speedup curves of Figure 1 and Figure 2, the
// classification of Table 2, the per-application fault-count tables, the
// Barnes data-traffic comparison, and the relative-efficiency harmonic
// means of Tables 16 and 17 — and the extension tables beside them.
//
// All runs go through the sweep engine (internal/sweep): every experiment
// declares the cuts of the evaluation cross product it reads, results are
// memoized so experiments share them (the fault tables reuse Figure 1's
// runs, for example), progress, CSV and record output is written under one
// lock in canonical order, and Prefetch fans an experiment's whole point set
// out over a worker pool before the table renders — with output identical,
// byte for byte, to fully serial execution.
package harness

import (
	"context"
	"fmt"
	"io"
	"sort"

	"dsmsim/internal/core"
	"dsmsim/internal/sweep"
)

// Options configures a Runner: the sweep engine's settings — problem
// size, verification, workers, the per-run core.Config template, the
// progress, CSV and record writers, the fault grid — plus the three of its
// own. The engine's settings apply to every experiment's runs, except a
// setting a cut sets itself (sweep.Settings: a check cost, a profiler,
// degradation's loss plans). Under a FaultGrid the tables render the FIRST
// variant's runs while every variant reaches the progress and CSV streams;
// a cut with its own fault plan has no variants.
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

// ForkStats reports the engine's prefix-sharing counters (zero unless
// Options.Fork engaged).
func (r *Runner) ForkStats() sweep.ForkStats { return r.eng.ForkStats() }

// Result runs (or returns the memoized run of) one point: a matrix point
// or an application's sequential baseline (sweep.Seq).
func (r *Runner) Result(k sweep.Key) (*core.Result, error) {
	return r.eng.RunOne(context.Background(), k)
}

// Prefetch computes every key over the runner's worker pool, filling the
// memo so subsequent Result calls are cache hits. Progress and
// CSV records are emitted in the order of keys regardless of completion
// order, so a parallel prefetch is byte-identical to a serial one.
func (r *Runner) Prefetch(ctx context.Context, keys []sweep.Key) error {
	_, err := r.eng.Run(ctx, sweep.Dedupe(keys))
	return err
}

// Speedup returns T_seq / T_par for one point.
func (r *Runner) Speedup(k sweep.Key) (float64, error) {
	seq, err := r.Result(sweep.Seq(k.App))
	if err != nil {
		return 0, err
	}
	res, err := r.Result(k)
	if err != nil {
		return 0, err
	}
	return float64(seq.Time) / float64(res.Time), nil
}

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
	// Points lists every run the experiment will consume, for parallel
	// prefetch.
	Points func(o Options) []sweep.Key
	// Run renders the experiment (drawing on prefetched runs when the
	// caller prefetched; computing serially otherwise).
	Run func(r *Runner) error
}

// Get returns the named experiment.
func Get(name string) (Experiment, error) {
	var names []string
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
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
		pts = append(pts, e.Points(o)...)
	}
	return sweep.Dedupe(pts)
}
