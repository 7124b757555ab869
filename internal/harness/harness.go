// Package harness regenerates every table and figure of the paper's
// evaluation (§5): the speedup curves of Figure 1 and Figure 2, the
// classification of Table 2, the per-application fault-count tables, the
// Barnes data-traffic comparison, and the relative-efficiency harmonic
// means of Tables 16 and 17 — and the extension tables beside them.
//
// Every table is a pure function of the runs it reads. An experiment
// declares the cuts of the evaluation cross product it reads (PointsFor
// names their points); the caller runs those points once, through the
// sweep engine (internal/sweep), and hands the finished results to New.
// A render then only looks results up: it runs nothing, and a point its
// declaration does not name is an error, not an extra run.
package harness

import (
	"cmp"
	"fmt"
	"io"
	"sort"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/sweep"
)

// Options is what the renderers read: the scale the declared points were
// run at, the protocol set the matrix experiments sweep, the fault-grid
// variants, the what-if scale the critpath table names, and where the
// tables go. Under a fault grid the tables render the FIRST variant's runs;
// a cut with its own fault plan has no variants.
type Options struct {
	// Nodes is the cluster size (the paper uses 16; 0 means 16).
	Nodes int
	// Size is the problem scale (table1's problem-size labels).
	Size apps.SizeClass
	// Protocols overrides the protocol set the matrix experiments sweep
	// and render. Nil keeps the paper's three-protocol reproduction
	// matrix (proto.PaperNames); any registered name is accepted — see
	// proto.Names for the registry's catalog.
	Protocols []string
	// Faults names the fault-grid variants (sweep.Options.FaultGrid) every
	// matrix point without a plan of its own runs under.
	Faults []string
	// WhatIf is the cost-class rescaling every run's template carried, if
	// any; the critpath table names it.
	WhatIf *critpath.Scale
	// Out receives the rendered tables.
	Out io.Writer
}

// Runner is a read-only view of a finished set of runs, the one thing the
// renderers read.
type Runner struct {
	opts    Options
	results map[sweep.Key]*core.Result
}

// New views results, aligned with the keys they were run for (what
// sweep.Run returns for keys), under opts.
func New(opts Options, keys []sweep.Key, results []*core.Result) *Runner {
	opts.Nodes = cmp.Or(opts.Nodes, 16)
	r := &Runner{opts: opts, results: make(map[sweep.Key]*core.Result, len(keys))}
	for i, k := range keys {
		r.results[k] = results[i]
	}
	return r
}

// Result returns the run of one point: a matrix point or an application's
// sequential baseline (sweep.Seq). A point the results do not hold is an
// error naming it.
func (r *Runner) Result(k sweep.Key) (*core.Result, error) {
	if res, ok := r.results[k]; ok {
		return res, nil
	}
	return nil, undeclared(k)
}

// Speedup returns T_seq / T_par for one point.
func (r *Runner) Speedup(k sweep.Key) (s float64, err error) {
	defer catch(&err)
	return r.speedup(k), nil
}

// undeclared is the error of a lookup outside the results.
type undeclared sweep.Key

func (k undeclared) Error() string {
	return fmt.Sprintf("harness: %s is not among the declared points", sweep.Key(k))
}

// result is Result for the renderers: a point the results do not hold
// abandons the render, and the experiment's Run (declare) returns the error
// naming it, so a render is straight-line formatting with no error paths.
func (r *Runner) result(k sweep.Key) *core.Result {
	res, err := r.Result(k)
	if err != nil {
		panic(err)
	}
	return res
}

// speedup is Speedup for the renderers, failing as result does.
func (r *Runner) speedup(k sweep.Key) float64 {
	return float64(r.result(sweep.Seq(k.App)).Time) / float64(r.result(k).Time)
}

// catch ends a render that looked up an undeclared point, deferred, setting
// *err to that point's error; any other panic goes on.
func catch(err *error) {
	if p := recover(); p != nil {
		k, ok := p.(undeclared)
		if !ok {
			panic(p)
		}
		*err = k
	}
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
	// Points lists every run the experiment reads.
	Points func(o Options) []sweep.Key
	// Run renders the experiment from a Runner holding (at least) its
	// Points' results.
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

// PointsFor unions (and dedupes) the point sets of the given experiments,
// preserving experiment order — the deterministic emission order of the
// one sweep that runs them.
func PointsFor(o Options, exps []Experiment) []sweep.Key {
	var pts []sweep.Key
	for _, e := range exps {
		pts = append(pts, e.Points(o)...)
	}
	return sweep.Dedupe(pts)
}
