package harness

import (
	"bytes"
	"context"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/faults"
	"dsmsim/internal/sweep"
)

// mustNew builds a runner from options the test knows to be valid.
func mustNew(t testing.TB, o Options) *Runner {
	t.Helper()
	r, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testRunner(t *testing.T) (*Runner, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	return mustNew(t, Options{Options: sweep.Options{Size: apps.Small}, Nodes: 4, Out: &out}), &out
}

// mustRender runs the named experiments on r, in order.
func mustRender(t *testing.T, r *Runner, names ...string) {
	t.Helper()
	for _, name := range names {
		e, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
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

func TestSequentialCached(t *testing.T) {
	r, _ := testRunner(t)
	a, err := r.Result(sweep.Seq("lu"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result(sweep.Seq("lu"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("sequential time not cached/deterministic")
	}
}

func TestResultCached(t *testing.T) {
	r, _ := testRunner(t)
	a, err := r.Result(sweep.Key{App: "lu", Protocol: "sc", Block: 1024, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result(sweep.Key{App: "lu", Protocol: "sc", Block: 1024, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("result not cached")
	}
}

func TestSpeedupPositive(t *testing.T) {
	r, _ := testRunner(t)
	s, err := r.Speedup(sweep.Key{App: "lu", Protocol: "hlrc", Block: 4096, Nodes: 4})
	if err != nil {
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
	if _, err := Get("fourway"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("sharing"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("critpath"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("fig1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("degradation"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("nonesuch"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1Small(t *testing.T) {
	r, out := testRunner(t)
	mustRender(t, r, "table1")
	s := out.String()
	for _, app := range apps.Originals() {
		if !strings.Contains(s, app) {
			t.Fatalf("table 1 missing %s:\n%s", app, s)
		}
	}
}

func TestFaultTableSmall(t *testing.T) {
	r, out := testRunner(t)
	mustRender(t, r, "table3")
	if !strings.Contains(out.String(), "read") || !strings.Contains(out.String(), "write") {
		t.Fatalf("fault table malformed:\n%s", out.String())
	}
}

func TestFig2Small(t *testing.T) {
	r, out := testRunner(t)
	mustRender(t, r, "fig2")
	if !strings.Contains(out.String(), "interrupt") {
		t.Fatalf("fig2 malformed:\n%s", out.String())
	}
}

// TestTables16And17Small runs the heavyweight statistics end to end at
// Small size (this exercises every app × protocol × granularity).
func TestTables16And17Small(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross product")
	}
	r, out := testRunner(t)
	mustRender(t, r, "table16", "table17")
	s := out.String()
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
	r, out := testRunner(t)
	mustRender(t, r, "memory", "scaling", "software", "delayed", "fourway", "bigblocks", "breakdown")
	s := out.String()
	for _, want := range []string{"memory utilization", "cluster size", "All-software", "Four protocol families", "tlc"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestDegradationTableSmall(t *testing.T) {
	table := func() string {
		r, out := testRunner(t)
		mustRender(t, r, "degradation")
		return out.String()
	}
	s := table()
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
	if again := table(); again != s {
		t.Fatal("degradation table not deterministic across runners")
	}
}

// TestOwnPlanTakesNoGridVariant: degradation's cuts carry plans of their
// own, so under a fault grid they expand to one point each, untagged, and
// the table is the one rendered without a grid.
func TestOwnPlanTakesNoGridVariant(t *testing.T) {
	render := func(grid []sweep.FaultVariant) (string, []sweep.Key) {
		var out bytes.Buffer
		r := mustNew(t, Options{Options: sweep.Options{Size: apps.Small, FaultGrid: grid}, Nodes: 4, Out: &out})
		e, err := Get("degradation")
		if err != nil {
			t.Fatal(err)
		}
		pts := PointsFor(r.opts, []Experiment{e})
		if err := r.Prefetch(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(r); err != nil {
			t.Fatal(err)
		}
		return out.String(), pts
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
	r, out := testRunner(t)
	mustRender(t, r, "fig1", "table2", "table15")
	s := out.String()
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
// prefetching an experiment's points at 8 workers and rendering must
// produce byte-identical table, progress and CSV output to 1 worker.
func TestPrefetchParallelDeterminism(t *testing.T) {
	render := func(parallel int) (table, progress, csv string) {
		var tb, pb, cb bytes.Buffer
		r := mustNew(t, Options{Options: sweep.Options{Size: apps.Small, Progress: &pb, CSV: &cb, Workers: parallel}, Nodes: 4, Out: &tb})
		e, err := Get("table3") // lu fault table: 3 protocols × 4 granularities
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Prefetch(context.Background(), PointsFor(r.opts, []Experiment{e})); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(r); err != nil {
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

// TestMemoHitIsNotANewPoint: rendering a prefetched table looks each of its
// points up again, and every such lookup is served by the memo. /metrics
// must still count each point once and list each series once (Prometheus
// rejects a repeated sample), while the memo-hit counter counts the
// lookups.
func TestMemoHitIsNotANewPoint(t *testing.T) {
	reg := sweep.NewRegistry()
	r := mustNew(t, Options{Options: sweep.Options{Size: apps.Small, Workers: 2, Metrics: reg}, Nodes: 4, Out: io.Discard})
	e, err := Get("table3")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prefetch(context.Background(), PointsFor(r.opts, []Experiment{e})); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(r); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	reg.WritePrometheus(&text)
	for _, want := range []string{"dsmsim_sweep_points_total 12\n", "dsmsim_sweep_points_completed 12\n",
		"dsmsim_sweep_memo_hits_total 24\n"} {
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

// TestPointsForCoversExperiments checks that every experiment's declared
// point set satisfies its Run, under the paper's protocol set and under an
// override: after the prefetch, rendering must compute no run, for every
// run it computes writes a progress line.
func TestPointsForCoversExperiments(t *testing.T) {
	for _, protos := range [][]string{nil, {"sc"}} {
		var pb bytes.Buffer
		r := mustNew(t, Options{Options: sweep.Options{Size: apps.Small, Progress: &pb, Workers: 4},
			Nodes: 4, Out: io.Discard, Protocols: protos})
		for _, e := range Experiments() {
			if err := r.Prefetch(context.Background(), PointsFor(r.opts, []Experiment{e})); err != nil {
				t.Fatal(err)
			}
			progress := pb.Len()
			if err := e.Run(r); err != nil {
				t.Fatal(err)
			}
			if uncovered := pb.String()[progress:]; uncovered != "" {
				t.Errorf("protocols %v: %s ran points its declaration does not name:\n%s", protos, e.Name, uncovered)
			}
		}
	}
}

func TestLabelPaperVsSmall(t *testing.T) {
	small := mustNew(t, Options{Options: sweep.Options{Size: apps.Small}, Nodes: 4, Out: io.Discard})
	paper := mustNew(t, Options{Options: sweep.Options{Size: apps.Paper}, Nodes: 4, Out: io.Discard})
	if small.label("lu") == paper.label("lu") {
		t.Fatal("labels must differ by size class")
	}
	if small.label("nonesuch") != "?" {
		t.Fatal("unknown label")
	}
}

func TestCSVOutput(t *testing.T) {
	var csv bytes.Buffer
	r := mustNew(t, Options{Options: sweep.Options{Size: apps.Small, CSV: &csv}, Nodes: 4, Out: io.Discard})
	if _, err := r.Result(sweep.Key{App: "lu", Protocol: "hlrc", Block: 4096, Nodes: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Result(sweep.Key{App: "lu", Protocol: "sc", Block: 64, Nodes: 4}); err != nil {
		t.Fatal(err)
	}
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

// fill sets every exported field under v to a non-zero value.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i))
			}
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0))
	case reflect.Interface: // every interface-typed setting is an io.Writer
		v.Set(reflect.ValueOf(&bytes.Buffer{}))
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// TestNoSettingDroppedOnTheWayDown sets every exported field of Options
// and checks each arrives: the embedded engine settings in the options the
// engine runs under, the runner's own three in the runner. Shadowing is
// how an embedded setting would get lost — callers writing the outer field,
// the engine reading the inner — so the closing loop refuses a field named
// like one of sweep.Options'.
func TestNoSettingDroppedOnTheWayDown(t *testing.T) {
	var o Options
	fill(reflect.ValueOf(&o).Elem())
	r := mustNew(t, o)
	want := o
	if got := r.eng.Options(); !reflect.DeepEqual(got, want.Options) {
		t.Fatalf("engine options:\n got %+v\nwant %+v", got, want.Options)
	}
	if !reflect.DeepEqual(r.opts, want) {
		t.Fatalf("runner options:\n got %+v\nwant %+v", r.opts, want)
	}
	typ := reflect.TypeOf(o)
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); !f.Anonymous {
			if _, shadows := reflect.TypeOf(o.Options).FieldByName(f.Name); shadows {
				t.Errorf("harness.Options.%s shadows sweep.Options.%s", f.Name, f.Name)
			}
		}
	}
}
