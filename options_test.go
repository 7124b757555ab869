package dsmsim_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"dsmsim"
	"dsmsim/internal/sweep"
)

var oneRun = dsmsim.SweepSpec{
	Apps: []string{"lu"}, Protocols: []string{dsmsim.SC}, Granularities: []int{1024},
	Nodes: 4, Size: dsmsim.Small, SkipBaselines: true,
}

// TestCSVWriterSwitchesObserverOn: a profile writer alone is enough — at
// 8395aed WithProfCSV without WithShareProfile (and WithCritCSV without
// WithCritPath) returned success and an empty file.
func TestCSVWriterSwitchesObserverOn(t *testing.T) {
	for _, c := range []struct {
		name   string
		writer func(*bytes.Buffer) dsmsim.Option
		both   func(*bytes.Buffer) []dsmsim.Option
		header string
	}{
		{"prof", func(b *bytes.Buffer) dsmsim.Option { return dsmsim.WithProfCSV(b) },
			func(b *bytes.Buffer) []dsmsim.Option {
				return []dsmsim.Option{dsmsim.WithShareProfile(), dsmsim.WithProfCSV(b)}
			},
			"app,protocol,block,notify,nodes,region,"},
		{"crit", func(b *bytes.Buffer) dsmsim.Option { return dsmsim.WithCritCSV(b) },
			func(b *bytes.Buffer) []dsmsim.Option {
				return []dsmsim.Option{dsmsim.WithCritPath(), dsmsim.WithCritCSV(b)}
			},
			"app,protocol,block,notify,nodes,crit_total_ns,"},
	} {
		var alone, both bytes.Buffer
		if _, err := dsmsim.Sweep(context.Background(), oneRun, c.writer(&alone)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := dsmsim.Sweep(context.Background(), oneRun, c.both(&both)...); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.HasPrefix(alone.String(), c.header) || strings.Count(alone.String(), "\n") < 2 {
			t.Errorf("%s: writer alone produced no rows:\n%s", c.name, alone.String())
		}
		if alone.String() != both.String() {
			t.Errorf("%s: writer alone differs from writer + observer:\n%s\nvs\n%s", c.name, alone.String(), both.String())
		}
	}
}

// TestSampleCSVNeedsInterval: a sample writer has no interval to imply, so
// the sweep refuses to start rather than leave the file empty.
func TestSampleCSVNeedsInterval(t *testing.T) {
	var buf bytes.Buffer
	_, err := dsmsim.Sweep(context.Background(), oneRun, dsmsim.WithSampleCSV(&buf))
	if err == nil || !strings.Contains(err.Error(), "sampling interval") {
		t.Fatalf("err = %v, want one naming the missing sampling interval", err)
	}
	if _, err := dsmsim.Sweep(context.Background(), oneRun,
		dsmsim.WithSampleCSV(&buf), dsmsim.WithSampleEvery(200*dsmsim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "app,protocol,block,notify,nodes,") {
		t.Fatalf("no sample rows with an interval set:\n%s", buf.String())
	}
}

// TestEveryOptionFieldHasAWith applies every public With* function to an
// empty options struct and walks it by reflection: each exported field —
// of sweep.Options and of the core.Config template inside it — must have
// become non-zero, except the ones listed as set elsewhere. A field added
// without a With* (or a With* that stops writing its field) fails here.
func TestEveryOptionFieldHasAWith(t *testing.T) {
	var w bytes.Buffer
	scale, err := dsmsim.ParseWhatIf("lock=0.5")
	if err != nil {
		t.Fatal(err)
	}
	var o sweep.Options
	for _, opt := range []dsmsim.Option{
		dsmsim.WithVerify(), dsmsim.WithFaults(dsmsim.NewFaultPlan()),
		dsmsim.WithFaultGrid(dsmsim.FaultVariant{Name: "x"}), dsmsim.WithFork(),
		dsmsim.WithLimit(dsmsim.Second), dsmsim.WithSampleEvery(dsmsim.Millisecond),
		dsmsim.WithShareProfile(), dsmsim.WithProfCSV(&w), dsmsim.WithCritPath(), dsmsim.WithCritCSV(&w),
		dsmsim.WithWhatIf(scale), dsmsim.WithTrace(&w), dsmsim.WithTraceJSON(&w),
		dsmsim.WithParallelism(3), dsmsim.WithProgress(&w), dsmsim.WithCSV(&w), dsmsim.WithHistograms(),
		dsmsim.WithSampleCSV(&w), dsmsim.WithRecord(&w), dsmsim.WithMetrics(dsmsim.NewMetrics()),
	} {
		opt(&o)
	}
	setElsewhere := map[string]bool{
		"Size": true, // SweepSpec.Size
		// The engine fills these per sweep.Key; Start takes them from cfg.
		"Config.Nodes": true, "Config.BlockSize": true, "Config.Protocol": true,
		"Config.Notify": true, "Config.Sequential": true,
		// Config-only knobs of single runs, deliberately without an option.
		"Config.StaticHomes": true, "Config.SoftwareAccessCheck": true,
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			switch {
			case name == "Config":
				walk(f, "Config.")
			case f.IsZero() != setElsewhere[name]:
				t.Errorf("%s: zero=%v after every With*, listed as set elsewhere=%v", name, f.IsZero(), setElsewhere[name])
			}
		}
	}
	walk(reflect.ValueOf(o), "")
}

// TestStartRefusesSweepOnlyOptions: each of the eleven options only a
// sweep can use is an error from Start naming it, where Start used to run
// without it.
func TestStartRefusesSweepOnlyOptions(t *testing.T) {
	var w bytes.Buffer
	for _, c := range []struct {
		name string
		opt  dsmsim.Option
	}{
		{"WithParallelism", dsmsim.WithParallelism(2)}, {"WithProgress", dsmsim.WithProgress(&w)},
		{"WithCSV", dsmsim.WithCSV(&w)}, {"WithHistograms", dsmsim.WithHistograms()},
		{"WithSampleCSV", dsmsim.WithSampleCSV(&w)}, {"WithProfCSV", dsmsim.WithProfCSV(&w)},
		{"WithCritCSV", dsmsim.WithCritCSV(&w)}, {"WithRecord", dsmsim.WithRecord(&w)},
		{"WithMetrics", dsmsim.WithMetrics(dsmsim.NewMetrics())},
		{"WithFaultGrid", dsmsim.WithFaultGrid(dsmsim.FaultVariant{Name: "none"})}, {"WithFork", dsmsim.WithFork()},
	} {
		_, err := dsmsim.StartApp(context.Background(), smallCfg(), "lu", dsmsim.Small, c.opt)
		if err == nil || !strings.HasSuffix(err.Error(), "sweep-only option: "+c.name) {
			t.Errorf("Start with %s: err = %v, want a refusal naming it", c.name, err)
		}
	}
	if w.Len() != 0 {
		t.Errorf("a refused Start wrote %q", w.String())
	}
}

// TestSweepTracesItsOnePoint: a Sweep's trace writer receives the bytes
// Start writes for the same point, and nothing of the baseline; over two
// points the Sweep fails naming both instead of ignoring the writer.
func TestSweepTracesItsOnePoint(t *testing.T) {
	ctx := context.Background()
	spec := oneRun
	spec.SkipBaselines = false
	var swept, started bytes.Buffer
	if _, err := dsmsim.Sweep(ctx, spec, dsmsim.WithTrace(&swept)); err != nil {
		t.Fatal(err)
	}
	cfg := dsmsim.Config{Nodes: 4, BlockSize: 1024, Protocol: dsmsim.SC}
	if _, err := dsmsim.StartApp(ctx, cfg, "lu", dsmsim.Small, dsmsim.WithTrace(&started)); err != nil {
		t.Fatal(err)
	}
	if started.Len() == 0 || swept.String() != started.String() {
		t.Errorf("Sweep traced %d bytes, want Start's %d", swept.Len(), started.Len())
	}
	spec.Protocols = []string{dsmsim.SC, dsmsim.HLRC}
	swept.Reset()
	_, err := dsmsim.Sweep(ctx, spec, dsmsim.WithTraceJSON(&swept))
	if err == nil || !strings.Contains(err.Error(), "lu/sc/1024/polling/4p and lu/hlrc/1024/polling/4p") || swept.Len() != 0 {
		t.Errorf("two-point Sweep with a trace writer: err = %v, %d bytes traced", err, swept.Len())
	}
}
