package dsmsim

import (
	"context"
	"fmt"
	"strings"

	"dsmsim/internal/sweep"
)

// Start is the single entrypoint for individual runs: it validates cfg,
// applies the functional options, builds the machine and executes app to
// completion (or ctx cancellation):
//
//	res, err := dsmsim.Start(ctx, cfg, app,
//	    dsmsim.WithVerify(),
//	    dsmsim.WithFaults(plan),
//	    dsmsim.WithTrace(os.Stderr))
//
// By default the run is unverified; WithVerify() re-checks the final
// shared image against the sequential reference. Options mirror Config
// where they overlap (WithFaults, WithLimit, WithSampleEvery, WithTrace,
// the profilers) and write into the same struct: they are
// applied on top of cfg, in order, so an option overrides the Config
// field it names. An option only a sweep can use is an error naming it.
// Never call it on a goroutine locked to its OS thread: the process dies
// with a fatal error (see the package doc).
func Start(ctx context.Context, cfg Config, app App, opts ...Option) (*Result, error) {
	o := sweep.Options{Config: cfg}
	for _, opt := range opts {
		opt(&o)
	}
	var sweepOnly []string
	for _, f := range []struct {
		name string
		set  bool
	}{{"WithParallelism", o.Workers != 0}, {"WithProgress", o.Progress != nil}, {"WithCSV", o.CSV != nil},
		{"WithHistograms", o.Histograms}, {"WithRecord", o.Record != nil}, {"WithMetrics", o.Metrics != nil},
		{"WithFaultGrid", o.FaultGrid != nil}, {"WithFork", o.Fork}} {
		if f.set {
			sweepOnly = append(sweepOnly, f.name)
		}
	}
	if sweepOnly != nil {
		return nil, fmt.Errorf("dsmsim: Start takes no sweep-only option: %s", strings.Join(sweepOnly, ", "))
	}
	m, err := NewMachine(o.Config)
	if err != nil {
		return nil, err
	}
	if o.Verify {
		return m.RunVerifiedContext(ctx, app)
	}
	return m.RunContext(ctx, app)
}

// StartApp is Start for a bundled application selected by name and size.
func StartApp(ctx context.Context, cfg Config, name string, size SizeClass, opts ...Option) (*Result, error) {
	app, err := NewApp(name, size)
	if err != nil {
		return nil, err
	}
	return Start(ctx, cfg, app, opts...)
}
