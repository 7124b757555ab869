package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
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
// progress lines, the run records and the sampler table projected from
// them are byte-identical between an 8-worker and a 1-worker sweep, and
// /metrics agrees on the counts.
func TestSamplerCSVParallelDeterminism(t *testing.T) {
	run := func(workers int) (progress, samples, records string, reg *Registry) {
		var pb, rb bytes.Buffer
		reg = NewRegistry()
		e := mustNew(t, Options{Size: apps.Small, Workers: workers, Progress: &pb,
			Config: core.Config{SampleEvery: 200 * sim.Microsecond}, Record: &rb, Metrics: reg})
		if _, err := e.Run(context.Background(), testSpec().Points()); err != nil {
			t.Fatal(err)
		}
		return pb.String(), project(t, "sample", bytes.NewReader(rb.Bytes())), rb.String(), reg
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

// TestSinkSerializesEmit: Emit from eight goroutines at once writes every
// point's progress line whole.
func TestSinkSerializesEmit(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf, nil, false, nil, nil, nil, false, false)
	res := &core.Result{Time: sim.Millisecond}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Emit(Key{App: fmt.Sprintf("w%d", i), Protocol: core.SC, Block: j, Nodes: 4}, res)
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	seen := map[string]bool{}
	for _, l := range lines {
		var app, proto, notify string
		var block int
		if _, err := fmt.Sscanf(l, "run  %s %s %dB %s T=1.000ms", &app, &proto, &block, &notify); err != nil || seen[app+"/"+fmt.Sprint(block)] {
			t.Fatalf("interleaved or repeated line %q (%v)", l, err)
		}
		seen[app+"/"+fmt.Sprint(block)] = true
	}
	if len(seen) != 400 {
		t.Fatalf("%d distinct lines, want 400", len(seen))
	}
}

func TestSinkEmitAfterClose(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf, nil, false, nil, nil, nil, false, false)
	s.Close()
	// Close releases nothing: the sink stays usable.
	if err := s.Emit(Seq("lu"), &core.Result{Time: sim.Millisecond}); err != nil || buf.String() != "seq  lu                 T=1.000ms\n" {
		t.Fatalf("Emit after Close wrote %q, %v", buf.String(), err)
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
	k.Settings = Settings{SoftwareAccessCheck: 100, ShareProfile: true, CritPath: true, Faults: "drop=0.01,seed=1", WhatIf: "msg=0.5"}
	if got := k.String(); got != "lu/sc/64/polling/16p/check=100ns/prof/crit/faults=drop=0.01,seed=1/whatif=msg=0.5" {
		t.Fatalf("key with settings = %q", got)
	}
}

// TestSettingsOverrideTemplate: a point's settings reach its run over an
// empty template, name it in its progress line and its record, and keep
// it out of the CSV table.
func TestSettingsOverrideTemplate(t *testing.T) {
	var progress, csv, record bytes.Buffer
	e := mustNew(t, Options{Size: apps.Small, Progress: &progress, CSV: &csv, Record: &record})
	plain := Key{App: "lu", Protocol: core.HLRC, Block: 4096, Nodes: 4}
	k := plain
	k.Settings = Settings{SoftwareAccessCheck: 100, ShareProfile: true, CritPath: true, Faults: "drop=0.01,seed=1"}
	res, err := e.Run(context.Background(), []Key{plain, k})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[1]; got.Sharing == nil || got.CritPath == nil || got.Retransmits == 0 || got.Time <= res[0].Time {
		t.Errorf("settings did not reach the run: sharing %v, crit %v, retransmits %d, time %v vs %v",
			got.Sharing != nil, got.CritPath != nil, got.Retransmits, got.Time, res[0].Time)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 2 {
		t.Errorf("CSV holds %d lines, want the header and the plain point's row:\n%s", lines, csv.String())
	}
	if want := fmt.Sprintf(" T=%v check=100ns prof crit faults=drop=0.01,seed=1\n", res[1].Time); !strings.HasSuffix(progress.String(), want) {
		t.Errorf("progress ends %q, want %q", progress.String(), want)
	}
	recs := strings.Split(strings.TrimSuffix(record.String(), "\n"), "\n")
	if len(recs) != 2 || strings.Contains(recs[0], "SoftwareAccessCheck") ||
		!strings.Contains(recs[1], `"SoftwareAccessCheck":100,"ShareProfile":true,"CritPath":true,"Faults":"drop=0.01,seed=1"`) {
		t.Errorf("records:\n%s", record.String())
	}
}

// TestWhatIfSetting: a point's WhatIf rescales its run as the template's
// scale would, and a spec outside the critpath.ParseScale grammar fails
// naming the point.
func TestWhatIfSetting(t *testing.T) {
	ctx := context.Background()
	scale, err := critpath.ParseScale("msg=0.5")
	if err != nil {
		t.Fatal(err)
	}
	plain := Key{App: "lu", Protocol: core.HLRC, Block: 4096, Nodes: 4}
	twin := plain
	twin.WhatIf = "msg=0.5"
	res, err := mustNew(t, Options{Size: apps.Small}).Run(ctx, []Key{plain, twin})
	if err != nil {
		t.Fatal(err)
	}
	template, err := mustNew(t, Options{Size: apps.Small, Config: core.Config{WhatIf: scale}}).RunOne(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Time != template.Time || res[1].Time >= res[0].Time {
		t.Errorf("twin %v, template-scaled %v, plain %v: want the first two equal and below the third",
			res[1].Time, template.Time, res[0].Time)
	}
	bad := plain
	bad.WhatIf = "msg"
	if _, err := mustNew(t, Options{Size: apps.Small}).RunOne(ctx, bad); err == nil || !strings.HasPrefix(err.Error(), bad.String()+": ") {
		t.Errorf("err = %v, want a bad what-if spec named %s", err, bad)
	}
}

// TestTraceOneRun: the template's trace writers trace the one point given
// as the template describes it — the bytes a plain run of it writes — and
// neither its baseline nor a point with settings; a Run that would trace
// two points fails naming both before it runs any.
func TestTraceOneRun(t *testing.T) {
	ctx := context.Background()
	plain := Key{App: "lu", Protocol: core.HLRC, Block: 4096, Nodes: 4}
	crit := plain
	crit.CritPath = true
	var line bytes.Buffer
	e := mustNew(t, Options{Size: apps.Small, Config: core.Config{Trace: &line}})
	if _, err := e.Run(ctx, []Key{Seq("lu"), plain, crit, plain}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	m, err := core.NewMachine(core.Config{Nodes: 4, BlockSize: 4096, Protocol: core.HLRC, Trace: &want})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := apps.Get("lu")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(ctx, entry.New(apps.Small)); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || line.String() != want.String() {
		t.Errorf("line trace of %d bytes, want the plain run's %d", line.Len(), want.Len())
	}

	other := plain
	other.Protocol = core.SC
	var buf bytes.Buffer
	_, err = mustNew(t, Options{Size: apps.Small, Config: core.Config{Trace: &buf}}).Run(ctx, []Key{Seq("lu"), plain, other})
	if err == nil || !strings.Contains(err.Error(), plain.String()+" and "+other.String()) || buf.Len() != 0 {
		t.Errorf("err = %v with %d bytes traced, want a refusal naming %s and %s", err, buf.Len(), plain, other)
	}
}

// TestComputeErrorNamesPoint: a run's error names its point and keeps its
// type.
func TestComputeErrorNamesPoint(t *testing.T) {
	plan, err := faults.Parse("straggler=9x2")
	if err != nil {
		t.Fatal(err)
	}
	e := mustNew(t, Options{Size: apps.Small, Config: core.Config{Faults: plan}})
	k := Key{App: "lu", Protocol: core.HLRC, Block: 4096, Nodes: 4}
	_, err = e.Run(context.Background(), []Key{k})
	if !errors.Is(err, core.ErrBadFaultPlan) || !strings.HasPrefix(err.Error(), k.String()+": ") {
		t.Fatalf("err = %v, want a bad fault plan named %s", err, k)
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
	if got := e.Options(); !reflect.DeepEqual(got, want) {
		t.Fatalf("engine options:\n got %+v\nwant %+v", got, want)
	}

	k := Key{App: "lu", Protocol: core.HLRC, Block: 256, Notify: network.Interrupt, Nodes: 4}
	cfg := want.Config
	cfg.Nodes, cfg.BlockSize, cfg.Protocol, cfg.Notify, cfg.Sequential = 4, 256, core.HLRC, network.Interrupt, false
	if got, err := e.config(k); err != nil || !reflect.DeepEqual(got, cfg) {
		t.Fatalf("config for %v (%v):\n got %+v\nwant %+v", k, err, got, cfg)
	}
	seq := want.Config
	seq.Nodes, seq.BlockSize, seq.Protocol, seq.Notify, seq.Sequential = 0, 4096, "", 0, true
	seq.Trace = nil // a baseline is never traced
	if got, err := e.config(Seq("lu")); err != nil || !reflect.DeepEqual(got, seq) {
		t.Fatalf("config for the baseline (%v):\n got %+v\nwant %+v", err, got, seq)
	}
	if _, err := core.NewMachine(seq); err != nil {
		t.Fatalf("the baseline's config does not validate: %v", err)
	}
}
