package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/faults"
	"dsmsim/internal/network"
	"dsmsim/internal/sim"
)

// testSpec is a small-but-real slice of the evaluation matrix: 2 apps ×
// 2 protocols × 2 granularities, 4 nodes, with baselines.
func testSpec() Spec {
	return Spec{
		Apps:          []string{"lu", "fft"},
		Protocols:     []string{core.SC, core.HLRC},
		Granularities: []int{256, 4096},
		Notifies:      []network.Notify{network.Polling},
		Nodes:         4,
		Baselines:     true,
	}
}

func TestSpecPointsCanonicalOrder(t *testing.T) {
	pts := testSpec().Points()
	want := []Key{
		Seq("lu"),
		{App: "lu", Protocol: "sc", Block: 256, Notify: network.Polling, Nodes: 4},
		{App: "lu", Protocol: "sc", Block: 4096, Notify: network.Polling, Nodes: 4},
		{App: "lu", Protocol: "hlrc", Block: 256, Notify: network.Polling, Nodes: 4},
		{App: "lu", Protocol: "hlrc", Block: 4096, Notify: network.Polling, Nodes: 4},
		Seq("fft"),
		{App: "fft", Protocol: "sc", Block: 256, Notify: network.Polling, Nodes: 4},
		{App: "fft", Protocol: "sc", Block: 4096, Notify: network.Polling, Nodes: 4},
		{App: "fft", Protocol: "hlrc", Block: 256, Notify: network.Polling, Nodes: 4},
		{App: "fft", Protocol: "hlrc", Block: 4096, Notify: network.Polling, Nodes: 4},
	}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("points = %v\nwant %v", pts, want)
	}
}

func TestDedupe(t *testing.T) {
	a := Key{App: "lu", Protocol: "sc", Block: 64, Nodes: 4}
	b := Key{App: "lu", Protocol: "sc", Block: 256, Nodes: 4}
	got := Dedupe([]Key{a, b, a, Seq("lu"), b, Seq("lu")})
	if want := []Key{a, b, Seq("lu")}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dedupe = %v, want %v", got, want)
	}
}

// runSweep executes the test spec with the given worker count on a fresh
// engine and returns the progress output, CSV output and results.
func runSweep(t *testing.T, workers int) (progress, csv string, results []*core.Result) {
	t.Helper()
	var pb, cb bytes.Buffer
	e := mustNew(t, Options{Size: apps.Small, Workers: workers, Progress: &pb, CSV: &cb, Histograms: true})
	res, err := e.Run(context.Background(), testSpec().Points())
	if err != nil {
		t.Fatal(err)
	}
	return pb.String(), cb.String(), res
}

// TestParallelByteIdenticalToSerial is the core determinism guarantee: a
// sweep at 8 workers produces byte-identical progress and CSV output, and
// identical per-run statistics, to the same sweep at 1 worker.
// mustNew builds an engine from options the test knows to be valid.
func mustNew(t testing.TB, o Options) *Engine {
	t.Helper()
	e, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParallelByteIdenticalToSerial(t *testing.T) {
	p1, c1, r1 := runSweep(t, 1)
	p8, c8, r8 := runSweep(t, 8)
	if p1 != p8 {
		t.Fatalf("progress output diverged:\n-- serial --\n%s\n-- parallel --\n%s", p1, p8)
	}
	if c1 != c8 {
		t.Fatalf("csv output diverged:\n-- serial --\n%s\n-- parallel --\n%s", c1, c8)
	}
	if len(r1) != len(r8) {
		t.Fatalf("result counts diverged: %d vs %d", len(r1), len(r8))
	}
	for i := range r1 {
		if r1[i].Time != r8[i].Time ||
			!reflect.DeepEqual(r1[i].Total, r8[i].Total) ||
			r1[i].NetMsgs != r8[i].NetMsgs || r1[i].NetBytes != r8[i].NetBytes {
			t.Fatalf("run %d stats diverged between serial and parallel", i)
		}
	}
	if p1 == "" || c1 == "" {
		t.Fatal("no output produced")
	}
}

// TestSamplerCSVParallelDeterminism extends the byte-identity guarantee to
// the metrics surfaces: with sampling and a live registry attached, the
// sampler CSV, the progress lines and the run records from an 8-worker
// sweep are byte-identical to a 1-worker sweep, and /metrics agrees on the
// counts.
func TestSamplerCSVParallelDeterminism(t *testing.T) {
	run := func(workers int) (progress, samples, records string, reg *Registry) {
		var pb, sb, rb bytes.Buffer
		reg = NewRegistry()
		e := mustNew(t, Options{Size: apps.Small, Workers: workers, Progress: &pb,
			Config: core.Config{SampleEvery: 200 * sim.Microsecond}, SampleCSV: &sb, Record: &rb, Metrics: reg})
		if _, err := e.Run(context.Background(), testSpec().Points()); err != nil {
			t.Fatal(err)
		}
		return pb.String(), sb.String(), rb.String(), reg
	}
	p1, s1, r1, _ := run(1)
	p8, s8, r8, reg := run(8)
	if s1 != s8 {
		t.Fatalf("sampler CSV diverged between 1 and 8 workers:\n-- serial --\n%s\n-- parallel --\n%s", s1, s8)
	}
	if p1 != p8 {
		t.Fatalf("progress diverged:\n-- serial --\n%s\n-- parallel --\n%s", p1, p8)
	}
	if r1 != r8 {
		t.Fatal("run records diverged between 1 and 8 workers")
	}
	// One record per point, baselines included.
	if n := strings.Count(r1, "\n"); n != len(testSpec().Points()) {
		t.Fatalf("%d record lines, want %d", n, len(testSpec().Points()))
	}
	if s1 == "" {
		t.Fatal("no sampler CSV produced")
	}
	lines := strings.Split(strings.TrimRight(s1, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "app,protocol,block,notify,nodes,t_ns,") {
		t.Fatalf("sample CSV header = %q", lines[0])
	}
	// 8 matrix points (baselines emit no samples), several rows each.
	if len(lines) < 9 {
		t.Fatalf("only %d sample CSV lines", len(lines))
	}
	var text strings.Builder
	reg.WritePrometheus(&text)
	for _, want := range []string{"dsmsim_sweep_points_total 10\n", "dsmsim_sweep_points_completed 10\n",
		"dsmsim_sweep_points_running 0\n"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("/metrics after sweep lacks %q:\n%s", want, text.String())
		}
	}
}

func TestRunOneMemoized(t *testing.T) {
	var pb bytes.Buffer
	e := mustNew(t, Options{Size: apps.Small, Workers: 2, Progress: &pb})
	k := Key{App: "lu", Protocol: core.SC, Block: 1024, Notify: network.Polling, Nodes: 4}
	a, err := e.RunOne(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.RunOne(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second RunOne did not hit the memo")
	}
	if n := bytes.Count(pb.Bytes(), []byte("run  ")); n != 1 {
		t.Fatalf("progress lines = %d, want 1 (cache hits stay silent)", n)
	}
}

func TestSweepThenCachedRunsStaySilent(t *testing.T) {
	var pb bytes.Buffer
	e := mustNew(t, Options{Size: apps.Small, Workers: 4, Progress: &pb})
	pts := testSpec().Points()
	if _, err := e.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	before := pb.String()
	// A second sweep over the same points is all cache hits: no new output.
	if _, err := e.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if pb.String() != before {
		t.Fatalf("cached sweep re-emitted output:\n%s", pb.String()[len(before):])
	}
}

func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo()
	var computes int
	var mu sync.Mutex
	gate := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*core.Result, waiters)
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err, _ := m.Do(Seq("x"), func() (*core.Result, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-gate
				return &core.Result{App: "x"}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	for _, r := range results {
		if r != results[0] {
			t.Fatal("waiters got different results")
		}
	}
}

func TestMemoErrorNotCached(t *testing.T) {
	m := NewMemo()
	boom := errors.New("boom")
	if _, err, _ := m.Do(Seq("x"), func() (*core.Result, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	res, err, fresh := m.Do(Seq("x"), func() (*core.Result, error) { return &core.Result{App: "x"}, nil })
	if err != nil || res == nil || !fresh {
		t.Fatalf("failed computation was cached: res=%v err=%v fresh=%v", res, err, fresh)
	}
}

func TestSweepCancellation(t *testing.T) {
	e := mustNew(t, Options{Size: apps.Small, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Run(ctx, testSpec().Points())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepUnknownAppFailsFast(t *testing.T) {
	e := mustNew(t, Options{Size: apps.Small, Workers: 4})
	pts := []Key{Seq("nonesuch"), Seq("lu")}
	if _, err := e.Run(context.Background(), pts); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestCSVSinkHeaderOnceConcurrent: runs emitted from many goroutines at
// once get one header between them; the sink's lock serializes the table.
func TestCSVSinkHeaderOnceConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(nil, &buf, false, nil, nil, nil, false, false)
	res := &core.Result{App: "lu", Protocol: "sc", BlockSize: 64, Nodes: 4}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Emit(Key{}, res)
		}()
	}
	wg.Wait()
	if n := bytes.Count(buf.Bytes(), []byte("app,protocol")); n != 1 {
		t.Fatalf("headers = %d, want exactly 1:\n%s", n, buf.String())
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 17 {
		t.Fatalf("lines = %d, want 17 (header + 16 records)", n)
	}
}

func TestCSVSinkAppendAware(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	res := &core.Result{App: "lu", Protocol: "sc", BlockSize: 64, Nodes: 4}

	// First invocation: fresh file gets the header.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	NewSink(nil, f, false, nil, nil, nil, false, false).Emit(Key{}, res)
	f.Close()

	// Second invocation, same append-mode pattern: no second header.
	f, err = os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	NewSink(nil, f, false, nil, nil, nil, false, false).Emit(Key{}, res)
	f.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("app,protocol")); n != 1 {
		t.Fatalf("headers = %d, want 1 across two append invocations:\n%s", n, data)
	}
	if n := bytes.Count(data, []byte("\n")); n != 3 {
		t.Fatalf("lines = %d, want 3 (header + 2 records)", n)
	}
}

func TestSinkSerializesLogf(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf, nil, false, nil, nil, nil, false, false)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Logf("worker %d line %d", i, j)
			}
		}()
	}
	wg.Wait()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 400 {
		t.Fatalf("lines = %d, want 400", len(lines))
	}
	for _, l := range lines {
		if !bytes.HasPrefix(l, []byte("worker ")) {
			t.Fatalf("interleaved line: %q", l)
		}
	}
}

func TestSinkEmitAfterClose(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf, nil, false, nil, nil, nil, false, false)
	s.Close()
	s.Logf("late") // Close releases nothing: the sink stays usable
	if !bytes.Contains(buf.Bytes(), []byte("late")) {
		t.Fatal("late emission lost")
	}
}

func TestKeyString(t *testing.T) {
	if got := Seq("lu").String(); got != "lu/seq" {
		t.Fatalf("seq key = %q", got)
	}
	k := Key{App: "lu", Protocol: "sc", Block: 64, Notify: network.Polling, Nodes: 16}
	if got := k.String(); got != fmt.Sprintf("lu/sc/64/%s/16p", network.Polling) {
		t.Fatalf("key = %q", got)
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

// TestNoSettingDroppedOnTheWayDown sets every exported field of Options —
// the core.Config template included — and checks each one arrives, first
// in the options the engine runs under and then in the core.Config it
// builds for a point. A field added to either struct is covered with no
// edit here; the only differences allowed are the ones listed.
func TestNoSettingDroppedOnTheWayDown(t *testing.T) {
	var o Options
	fill(reflect.ValueOf(&o).Elem())
	e := mustNew(t, o)
	want := o
	want.Config.Trace, want.Config.TraceJSON = nil, nil // per-run writers: cleared by New
	if got := e.Options(); !reflect.DeepEqual(got, want) {
		t.Fatalf("engine options:\n got %+v\nwant %+v", got, want)
	}

	k := Key{App: "lu", Protocol: core.HLRC, Block: 256, Notify: network.Interrupt, Nodes: 4}
	plan := faults.NewPlan(faults.Drop(0.5))
	cfg := want.Config
	cfg.Nodes, cfg.BlockSize, cfg.Protocol, cfg.Notify, cfg.Sequential, cfg.Faults = 4, 256, core.HLRC, network.Interrupt, false, plan
	if got := e.config(k, plan); !reflect.DeepEqual(got, cfg) {
		t.Fatalf("config for %v:\n got %+v\nwant %+v", k, got, cfg)
	}
	seq := want.Config
	seq.Nodes, seq.BlockSize, seq.Protocol, seq.Notify, seq.Sequential, seq.Faults = 0, 4096, "", 0, true, plan
	if got := e.config(Seq("lu"), plan); !reflect.DeepEqual(got, seq) {
		t.Fatalf("config for the baseline:\n got %+v\nwant %+v", got, seq)
	}
	if _, err := core.NewMachine(seq); err != nil {
		t.Fatalf("the baseline's config does not validate: %v", err)
	}
}
