package harness

import (
	"bytes"
	"context"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/faults"
	"dsmsim/internal/sweep"
)

// sweepFor runs every point exps declare on 4 nodes in one sweep under so,
// the way dsmrun -exp does, and returns per experiment a Runner over
// exactly the records of that experiment's declared points, rendering to
// out.
func sweepFor(t testing.TB, so sweep.Options, out io.Writer, exps ...Experiment) []*Runner {
	t.Helper()
	all := map[sweep.Key]sweep.Record{}
	for _, r := range runRecords(t, so, PointsFor(so, 4, exps)...) {
		all[r.Point] = r
	}
	var rs []*Runner
	for _, e := range exps {
		var own []sweep.Record
		for _, k := range PointsFor(so, 4, []Experiment{e}) {
			own = append(own, all[k])
		}
		rs = append(rs, view(t, out, own))
	}
	return rs
}

// runRecords runs keys in one sweep under so and returns its records.
func runRecords(t testing.TB, so sweep.Options, keys ...sweep.Key) []sweep.Record {
	t.Helper()
	recs, _, err := sweep.Run(context.Background(), so, keys)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// view is New for records that agree on their declaration.
func view(t testing.TB, out io.Writer, recs []sweep.Record) *Runner {
	t.Helper()
	r, err := New(out, recs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// get returns the named experiment.
func get(t testing.TB, name string) Experiment {
	t.Helper()
	exps, err := Select(name)
	if err != nil {
		t.Fatal(err)
	}
	return exps[0]
}

// small is the scale the tests render at.
var small = sweep.Options{Size: apps.Small}

// mustRender renders the named experiments, in order, from one sweep of
// their points at Small size on 4 nodes, and returns what they wrote.
func mustRender(t *testing.T, names ...string) string {
	t.Helper()
	var exps []Experiment
	for _, name := range names {
		exps = append(exps, get(t, name))
	}
	var out bytes.Buffer
	for i, r := range sweepFor(t, small, &out, exps...) {
		if err := exps[i].Run(r); err != nil {
			t.Fatalf("%s: %v", exps[i].Name, err)
		}
	}
	return out.String()
}

func TestHarmonicMean(t *testing.T) {
	if hm := harmonicMean([]float64{1, 1, 1}); hm != 1 {
		t.Fatalf("hm = %v", hm)
	}
	hm := harmonicMean([]float64{0.5, 1})
	if math.Abs(hm-2.0/3.0) > 1e-12 {
		t.Fatalf("hm = %v, want 2/3", hm)
	}
}

// lookup runs a render step, returning the error of a lookup it made
// outside the view.
func lookup(step func()) (err error) {
	defer catch(&err)
	step()
	return nil
}

// viewed checks that every lookup of k in a view of a sweep over it
// returns the sweep's own result.
func viewed(t *testing.T, k sweep.Key) {
	t.Helper()
	recs := runRecords(t, small, k)
	r := view(t, io.Discard, recs)
	for i := 0; i < 2; i++ {
		var got *core.Result
		if err := lookup(func() { got = r.result(k) }); err != nil || got != recs[0].Result {
			t.Fatalf("lookup %d of %s: %p, %v; want the sweep's %p", i, k, got, err, recs[0].Result)
		}
	}
}

func TestSequentialCached(t *testing.T) { viewed(t, sweep.Seq("lu")) }

func TestResultCached(t *testing.T) {
	viewed(t, sweep.Key{App: "lu", Protocol: "sc", Block: 1024, Nodes: 4})
}

func TestSpeedupPositive(t *testing.T) {
	k := sweep.Key{App: "lu", Protocol: "hlrc", Block: 4096, Nodes: 4}
	var s float64
	r := view(t, io.Discard, runRecords(t, small, sweep.Seq("lu"), k))
	if err := lookup(func() { s = r.speedup(k) }); err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("speedup = %v", s)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 30 {
		t.Fatalf("experiments = %d, want 30 (table1-17, fig1-2, 11 extensions)", len(exps))
	}
	if _, err := Select("fourway"); err != nil {
		t.Fatal(err)
	}
	if _, err := Select("sharing"); err != nil {
		t.Fatal(err)
	}
	if _, err := Select("critpath"); err != nil {
		t.Fatal(err)
	}
	if _, err := Select("fig1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Select("degradation"); err != nil {
		t.Fatal(err)
	}
	if _, err := Select("nonesuch"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if all, err := Select("all"); err != nil || len(all) != len(exps) || all[0].Name != "table1" {
		t.Fatalf("all: %d experiments, err = %v; want every one in order", len(all), err)
	}
}

func TestTable1Small(t *testing.T) {
	s := mustRender(t, "table1")
	for _, app := range apps.Originals() {
		if !strings.Contains(s, app) {
			t.Fatalf("table 1 missing %s:\n%s", app, s)
		}
	}
}

func TestFaultTableSmall(t *testing.T) {
	if s := mustRender(t, "table3"); !strings.Contains(s, "read") || !strings.Contains(s, "write") {
		t.Fatalf("fault table malformed:\n%s", s)
	}
}

func TestFig2Small(t *testing.T) {
	if s := mustRender(t, "fig2"); !strings.Contains(s, "interrupt") {
		t.Fatalf("fig2 malformed:\n%s", s)
	}
}

// TestTables16And17Small runs the heavyweight statistics end to end at
// Small size (this exercises every app × protocol × granularity).
func TestTables16And17Small(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross product")
	}
	s := mustRender(t, "table16", "table17")
	if !strings.Contains(s, "Table 16") || !strings.Contains(s, "Table 17") || !strings.Contains(s, "p_best") {
		t.Fatalf("tables malformed:\n%s", s)
	}
	// Every numeric field must be a plausible relative efficiency.
	for _, f := range strings.Fields(s) {
		if v, err := strconv.ParseFloat(f, 64); err == nil && (v < 0 || v > 20) {
			t.Fatalf("implausible value %v in:\n%s", v, s)
		}
	}
}

func TestExtensionExperimentsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("extension sweep")
	}
	s := mustRender(t, "memory", "scaling", "software", "delayed", "fourway", "bigblocks", "breakdown")
	for _, want := range []string{"memory utilization", "cluster size", "All-software", "Four protocol families", "tlc"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestDegradationTableSmall(t *testing.T) {
	s := mustRender(t, "degradation")
	for _, want := range []string{"Degradation under link loss", "sc", "swlrc", "hlrc", "0.050"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	// The lossless row is the 1.000x baseline; lossy rows must do ARQ work.
	if !strings.Contains(s, "1.000x") {
		t.Fatalf("no lossless baseline row:\n%s", s)
	}
	var sawRetx bool
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) == 7 && f[1] != "loss" && f[1] != "0.000" {
			if n, err := strconv.Atoi(f[4]); err == nil && n > 0 {
				sawRetx = true
			}
		}
	}
	if !sawRetx {
		t.Fatalf("no lossy row reports retransmissions:\n%s", s)
	}
	if again := mustRender(t, "degradation"); again != s {
		t.Fatal("degradation table not deterministic across sweeps")
	}
}

// TestOwnPlanTakesNoGridVariant: degradation's cuts carry plans of their
// own, so under a fault grid they expand to one point each, untagged, and
// the table is the one rendered without a grid.
func TestOwnPlanTakesNoGridVariant(t *testing.T) {
	render := func(grid []sweep.FaultVariant) (string, []sweep.Key) {
		var out bytes.Buffer
		e := get(t, "degradation")
		so := sweep.Options{Size: apps.Small, FaultGrid: grid}
		if err := e.Run(sweepFor(t, so, &out, e)[0]); err != nil {
			t.Fatal(err)
		}
		return out.String(), PointsFor(so, 4, []Experiment{e})
	}
	plain, _ := render(nil)
	got, pts := render([]sweep.FaultVariant{{Name: "a", Plan: faults.NewPlan(faults.Drop(0.05), faults.Seed(2))}, {Name: "b"}})
	if got != plain {
		t.Errorf("degradation under a fault grid:\n%s\nwant:\n%s", got, plain)
	}
	for _, k := range pts {
		if k.Fault != "" || k.Faults == "" {
			t.Errorf("degradation point %s: want its own plan and no grid variant", k)
		}
	}
	if len(pts) != 12 {
		t.Errorf("%d degradation points under a two-variant grid, want 12", len(pts))
	}
}

func TestFig1Table2Table15Small(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross product")
	}
	s := mustRender(t, "fig1", "table2", "table15")
	for _, want := range []string{"Figure 1", "Table 2", "Table 15", "barnes-original", "multiple"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in output", want)
		}
	}
	// 12 apps × 3 protocols rows in fig1.
	if n := strings.Count(s, "hlrc"); n < 12 {
		t.Fatalf("fig1 hlrc rows = %d, want ≥12", n)
	}
}

// TestPrefetchParallelDeterminism checks the dsmrun -exp pipeline end to end:
// sweeping an experiment's points at 8 workers and rendering must produce
// byte-identical table, progress and CSV output to 1 worker.
func TestPrefetchParallelDeterminism(t *testing.T) {
	render := func(parallel int) (table, progress, csv string) {
		var tb, pb, cb bytes.Buffer
		e := get(t, "table3") // lu fault table: 3 protocols × 4 granularities
		so := sweep.Options{Size: apps.Small, Progress: &pb, CSV: &cb, Workers: parallel}
		if err := e.Run(sweepFor(t, so, &tb, e)[0]); err != nil {
			t.Fatal(err)
		}
		return tb.String(), pb.String(), cb.String()
	}
	t1, p1, c1 := render(1)
	t8, p8, c8 := render(8)
	if t1 != t8 {
		t.Fatalf("table output diverged:\n-- serial --\n%s\n-- parallel --\n%s", t1, t8)
	}
	if p1 != p8 {
		t.Fatalf("progress output diverged:\n-- serial --\n%s\n-- parallel --\n%s", p1, p8)
	}
	if c1 != c8 {
		t.Fatalf("csv output diverged:\n-- serial --\n%s\n-- parallel --\n%s", c1, c8)
	}
	if t1 == "" || p1 == "" || c1 == "" {
		t.Fatal("missing output")
	}
}

// TestEveryPointOnceInMetrics: a table rendered after the sweep of its
// points reads the finished results, and the sweep runs each point once.
// /metrics must count each point once and list each series once
// (Prometheus rejects a repeated sample).
func TestEveryPointOnceInMetrics(t *testing.T) {
	reg := sweep.NewRegistry()
	e := get(t, "table3")
	so := sweep.Options{Size: apps.Small, Workers: 2, Metrics: reg}
	if err := e.Run(sweepFor(t, so, io.Discard, e)[0]); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	reg.WritePrometheus(&text)
	for _, want := range []string{"dsmsim_sweep_points_total 12\n", "dsmsim_sweep_points_completed 12\n"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text.String(), "\n"), "\n") {
		if series, _, _ := strings.Cut(line, " "); !strings.HasPrefix(line, "#") {
			if seen[series] {
				t.Errorf("series %s repeats", series)
			}
			seen[series] = true
		}
	}
	if t.Failed() {
		t.Logf("/metrics:\n%s", text.String())
	}
}

// TestPointsForCoversExperiments renders every experiment from exactly its
// declared points' results, under the paper's protocol set and under an
// override: a lookup outside them fails the render naming the point.
func TestPointsForCoversExperiments(t *testing.T) {
	exps := Experiments()
	for _, protos := range [][]string{nil, {"sc"}} {
		for i, r := range sweepFor(t, sweep.Options{Size: apps.Small, Workers: 4, Protocols: protos}, io.Discard, exps...) {
			if err := exps[i].Run(r); err != nil {
				t.Errorf("protocols %v: %s: %v", protos, exps[i].Name, err)
			}
		}
	}
}

// TestUndeclaredPointIsAnError: a view holds the points it was given and
// nothing else — a lookup of another point, a speedup without its
// baseline, and a render missing one of its declared points each fail
// naming the point, and nothing runs it.
func TestUndeclaredPointIsAnError(t *testing.T) {
	e := get(t, "table3")
	keys := PointsFor(small, 4, []Experiment{e})
	recs := make([]sweep.Record, len(keys))
	for i, k := range keys {
		recs[i] = sweep.Record{V: sweep.RecordVersion, Point: k, Result: &core.Result{Time: 1}}
	}
	r := view(t, io.Discard, recs)
	if err := e.Run(r); err != nil {
		t.Fatalf("table3 from its declared points: %v", err)
	}
	missing := keys[len(keys)-1]
	for _, c := range []struct {
		name string
		err  error
		want sweep.Key
	}{
		{"lookup", lookup(func() { r.result(sweep.Seq("lu")) }), sweep.Seq("lu")},
		{"speedup", lookup(func() { r.speedup(keys[0]) }), sweep.Seq("lu")},
		{"render", e.Run(view(t, io.Discard, recs[:len(recs)-1])), missing},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want.String()+" is not among the declared points") {
			t.Errorf("%s: err = %v, want one naming %s", c.name, c.err, c.want)
		}
	}
}

func TestLabelPaperVsSmall(t *testing.T) {
	small := view(t, io.Discard, nil)
	paper := view(t, io.Discard, []sweep.Record{{Declaration: sweep.Declaration{Size: apps.Paper}, Point: sweep.Seq("lu")}})
	if small.label("lu") == paper.label("lu") {
		t.Fatal("labels must differ by size class")
	}
	if small.label("nonesuch") != "?" {
		t.Fatal("unknown label")
	}
}

// TestCSVOutput: the sweep a view is made from writes its run table, one
// row per point in the order given.
func TestCSVOutput(t *testing.T) {
	var csv bytes.Buffer
	runRecords(t, sweep.Options{Size: apps.Small, CSV: &csv},
		sweep.Key{App: "lu", Protocol: "hlrc", Block: 4096, Nodes: 4}, sweep.Key{App: "lu", Protocol: "sc", Block: 64, Nodes: 4})
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2 records:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "app,protocol,block") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "lu,hlrc,4096,polling,4,") {
		t.Fatalf("bad record: %s", lines[1])
	}
}
