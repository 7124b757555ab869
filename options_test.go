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
		dsmsim.WithShareProfile(), dsmsim.WithCritPath(),
		dsmsim.WithWhatIf(scale), dsmsim.WithTrace(&w),
		dsmsim.WithParallelism(3), dsmsim.WithProgress(&w), dsmsim.WithCSV(&w), dsmsim.WithHistograms(),
		dsmsim.WithRecord(&w), dsmsim.WithMetrics(dsmsim.NewMetrics()),
	} {
		opt(&o)
	}
	setElsewhere := map[string]bool{
		"Size": true, // SweepSpec.Size
		// The protocol set the harness's experiments are declared over;
		// a Sweep's points take SweepSpec.Protocols.
		"Protocols": true,
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

// TestStartRefusesSweepOnlyOptions: each of the eight options only a
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
		{"WithRecord", dsmsim.WithRecord(&w)},
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
	_, err := dsmsim.Sweep(ctx, spec, dsmsim.WithTrace(&swept))
	if err == nil || !strings.Contains(err.Error(), "lu/sc/1024/polling/4p and lu/hlrc/1024/polling/4p") || swept.Len() != 0 {
		t.Errorf("two-point Sweep with a trace writer: err = %v, %d bytes traced", err, swept.Len())
	}
}
