package dsmsim

import (
	"context"

	"dsmsim/internal/sweep"
)

// Start is the single entrypoint for individual runs: it validates cfg,
// applies the functional options, builds the machine and executes app to
// completion (or ctx cancellation), consolidating what used to take four
// calls (Run, RunApp, Machine.RunContext, Machine.RunVerifiedContext):
//
//	res, err := dsmsim.Start(ctx, cfg, app,
//	    dsmsim.WithVerify(),
//	    dsmsim.WithFaults(plan),
//	    dsmsim.WithTrace(os.Stderr))
//
// By default the run is unverified; WithVerify() re-checks the final
// shared image against the sequential reference. Options mirror Config
// where they overlap (WithFaults, WithLimit, WithSampleEvery, WithTrace,
// WithTraceJSON, the profilers) and write into the same struct: they are
// applied on top of cfg, in order, so an option overrides the Config
// field it names.
func Start(ctx context.Context, cfg Config, app App, opts ...Option) (*Result, error) {
	o := sweep.Options{Config: cfg}
	for _, opt := range opts {
		opt(&o)
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
