// Package harness regenerates every table and figure of the paper's
// evaluation (§5): the speedup curves of Figure 1 and Figure 2, the
// classification of Table 2, the per-application fault-count tables, the
// Barnes data-traffic comparison, and the relative-efficiency harmonic
// means of Tables 16 and 17 — and the extension tables beside them.
//
// Every table is a pure function of the records it reads. An experiment
// declares the cuts of the evaluation cross product it reads (PointsFor
// names their points); the caller runs those points once, through the
// sweep engine (internal/sweep), and hands the records sweep.Run returns,
// or a record file's, to New. A render then only looks results up: it runs
// nothing, and a point its declaration does not name is an error, not an
// extra run.
package harness

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/sweep"
)

// Runner is a read-only view of a finished set of runs, the one thing the
// renderers read: results by point, and the cluster size, matrix protocol
// set (nil: proto.PaperNames), fault-grid variants (the tables render the
// first's runs), problem size and what-if scale they were declared at.
// New builds one over records; PointsFor expands cuts at one without.
type Runner struct {
	nodes             int
	protocols, faults []string
	size              apps.SizeClass
	whatIf            string
	out               io.Writer
	results           map[sweep.Key]*core.Result
}

// New views recs — what sweep.Run returned, or a record file's — rendering
// to out. The size, the what-if scale and the protocol set are the records'
// Declaration, which a line that differs from the first fails New naming.
// The cluster size is the first non-sequential point's, and the fault-grid
// variants are the points' in order of first appearance.
func New(out io.Writer, recs []sweep.Record) (*Runner, error) {
	r := &Runner{out: out, results: make(map[sweep.Key]*core.Result, len(recs))}
	for i, rec := range recs {
		if d := recs[0].Declaration; !reflect.DeepEqual(rec.Declaration, d) {
			return nil, fmt.Errorf("harness: record line %d was declared %#v, line 1 %#v", i+1, rec.Declaration, d)
		}
		r.size, r.whatIf, r.protocols = rec.Size, rec.WhatIf, rec.Protocols
		k := rec.Point
		if r.nodes == 0 && !k.Sequential {
			r.nodes = k.Nodes
		}
		if k.Fault != "" && !slices.Contains(r.faults, k.Fault) {
			r.faults = append(r.faults, k.Fault)
		}
		r.results[k] = rec.Result
	}
	return r, nil
}

// Render writes each experiment's tables, a blank line before each, from
// a view of recs (New) — what dsmrun -exp prints of the records it ran,
// and dsmrun -project of a record file — or, on error, nothing.
func Render(out io.Writer, recs []sweep.Record, exps []Experiment) error {
	var b bytes.Buffer
	r, err := New(&b, recs)
	for i := 0; err == nil && i < len(exps); i++ {
		b.WriteString("\n")
		if err = exps[i].Run(r); err != nil {
			err = fmt.Errorf("%s: %w", exps[i].Name, err)
		}
	}
	if err == nil {
		_, err = out.Write(b.Bytes())
	}
	return err
}

// undeclared is the error of a lookup outside the results.
type undeclared sweep.Key

func (k undeclared) Error() string {
	return fmt.Sprintf("harness: %s is not among the declared points", sweep.Key(k))
}

// result returns the run of one point: a matrix point or an application's
// sequential baseline (sweep.Seq). A point the results do not hold abandons
// the render, and the experiment's Run (declare) returns the error naming
// it, so a render is straight-line formatting with no error paths.
func (r *Runner) result(k sweep.Key) *core.Result {
	res, ok := r.results[k]
	if !ok {
		panic(undeclared(k))
	}
	return res
}

// speedup returns T_seq / T_par for one point, failing as result does.
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
	fmt.Fprintf(r.out, format, args...)
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
	// cuts are the cuts of the cross product it reads (PointsFor).
	cuts []matrix
	// Run renders the experiment from a Runner holding (at least) its
	// points' results.
	Run func(r *Runner) error
}

// Select returns the named experiment, or under "all" every one in order.
func Select(name string) ([]Experiment, error) {
	exps, names := Experiments(), []string{"all"}
	if name == "all" {
		return exps, nil
	}
	for _, e := range exps {
		if e.Name == name {
			return []Experiment{e}, nil
		}
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", name, names)
}

// PointsFor unions (and dedupes) the points of the experiments' cuts on a
// cluster of nodes under o's protocol set and fault-grid variants, in
// experiment order — the emission order of the one sweep that runs them.
func PointsFor(o sweep.Options, nodes int, exps []Experiment) []sweep.Key {
	r := &Runner{nodes: nodes, protocols: o.Protocols, faults: o.FaultNames()}
	var pts []sweep.Key
	for _, e := range exps {
		for _, m := range e.cuts {
			pts = append(pts, m.points(r)...)
		}
	}
	return sweep.Dedupe(pts)
}
