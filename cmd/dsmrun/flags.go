package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"dsmsim"
	"dsmsim/internal/apps"
	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/harness"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
	"dsmsim/internal/sweep"
)

// cli holds the parsed flags and the files and servers opened on their
// behalf. A fault plan has one spelling, faults.Parse's clause language, in
// -faults and in each -fault-grid variant.
type cli struct {
	fs *flag.FlagSet

	// What runs: a selector cross product, the harness's experiments, or
	// nothing (-project writes a table of a record file, or the Chrome
	// JSON of a trace file).
	app, protocol, block, notify string
	exp, project                 string
	list                         bool

	// How every run is built and checked.
	size        string
	nodes       int
	parallel    int
	verify      bool
	prof, crit  bool
	whatIf      string
	sampleEvery time.Duration
	faults      string
	faultGrid   string
	fork        bool
	staticHomes bool

	// Single runs only.
	trace            string
	profTop, critTop int

	// Sweeps only.
	latency       bool
	metricsAddr   string
	metricsLinger time.Duration

	// Output files and host profiles.
	record, cpuProfile, memProfile string

	closers        []func() error
	stdout, stderr io.Writer
}

// projections are the names -project takes: a record's CSV tables, a
// trace's Chrome JSON, then a record's experiments, one or all.
func projections() []string {
	names := append(slices.Clone(sweep.Tables), "chrome")
	for _, e := range harness.Experiments() {
		names = append(names, e.Name)
	}
	return append(names, "all")
}

// newCommand registers the flags on a fresh FlagSet and returns it with
// the command body to call after parsing.
func newCommand(stdout, stderr io.Writer) (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("dsmrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &cli{fs: fs, stdout: stdout, stderr: stderr}
	fs.StringVar(&c.app, "app", "lu", "application(s), comma-separated or 'all': "+strings.Join(dsmsim.AppNames(), ", "))
	fs.StringVar(&c.protocol, "protocol", "hlrc", "coherence protocol(s), comma-separated or 'all': "+strings.Join(dsmsim.AllProtocols(), ", ")+"; under -exp, unset means the paper's "+strings.Join(proto.PaperNames(), ", "))
	fs.StringVar(&c.block, "block", "4096", "coherence granularity list in bytes (64, 256, 1024, 4096) or 'all'")
	fs.StringVar(&c.notify, "notify", "polling", "message notification(s): polling, interrupt, or both comma-separated")
	fs.StringVar(&c.exp, "exp", "", "run a named experiment (see -list) or 'all' and render its tables, instead of the -app/-block/-notify cross product")
	fs.BoolVar(&c.list, "list", false, "list experiments and exit")
	fs.StringVar(&c.size, "size", "small", "problem size: small or paper")
	fs.IntVar(&c.nodes, "nodes", 16, "cluster size")
	fs.IntVar(&c.parallel, "parallel", 0, "max simulation runs in flight (0 = one per CPU, 1 = serial); output is byte-identical at every setting")
	fs.BoolVar(&c.verify, "verify", true, "check numeric results against the sequential reference (always on at -size small)")
	fs.BoolVar(&c.prof, "prof", false, "attach the sharing-pattern profiler (per-region taxonomy and true/false-sharing attribution)")
	fs.BoolVar(&c.crit, "crit", false, "attach the critical-path profiler (exact longest dependency chain, attributed per component/node/region)")
	fs.StringVar(&c.whatIf, "whatif", "", "rescale one cost class (compute, msg, svc, lock, barrier) on every run, e.g. 'lock=0.5'; a single run adds the rescaled twin beside the point instead")
	fs.DurationVar(&c.sampleEvery, "sample-every", 0, "virtual-time metrics sampling interval (e.g. 100us; 0 = off)")
	fs.StringVar(&c.faults, "faults", "", "deterministic fault plan: drop=P,dup=P,jitter=DUR,partition=A-B@FROM:TO,linkdrop=A-B:P,rto=DUR,seed=N,start=K,straggler=NODExFACTOR[@FROM:TO]")
	fs.StringVar(&c.faultGrid, "fault-grid", "", "semicolon-separated fault variants NAME[:SPEC] (SPEC as in -faults; empty = healthy); every configuration runs once per variant, and -fork shares their warmup prefixes")
	fs.BoolVar(&c.fork, "fork", false, "share warmup prefixes across the fault grid: simulate each group's pre-fault prefix once and fork it per variant (output stays byte-identical)")
	fs.BoolVar(&c.staticHomes, "static-homes", false, "disable first-touch home migration on every run (ablation)")
	fs.StringVar(&c.trace, "trace", "", "write the point's deterministic line-format event trace, not its baseline's or -whatif twin's (single runs only)")
	fs.IntVar(&c.profTop, "prof-top", 10, "regions shown in the single-run sharing report (0 = all)")
	fs.IntVar(&c.critTop, "crit-top", 5, "nodes/regions shown in the single-run critical-path report (0 = all)")
	fs.BoolVar(&c.latency, "latency", false, "print a latency-distribution summary under each sweep progress line")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve live sweep metrics over HTTP on this address")
	fs.DurationVar(&c.metricsLinger, "metrics-linger", 0, "keep serving -metrics-addr this long after the sweep (for scrapers)")
	fs.StringVar(&c.record, "record", "", "append each run's JSON record (the point and its full result; a sweep's baselines too) to this file, one line per run")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
	fs.StringVar(&c.project, "project", "", "write one projection of the file given as the one argument to stdout instead of running: a CSV table ("+strings.Join(sweep.Tables, ", ")+") or an experiment's tables (see -list, or 'all') of a -record file, or with 'chrome' the Chrome trace-event JSON of a -trace file")
	return fs, c.run
}

// apply writes the settings that describe a run into o: size, workers,
// verification, observers, sampling interval, what-if scale, static homes,
// the fault plan or grid, and fork. It refuses -faults beside -fault-grid
// and -fork without a grid. The output files come from openSinks.
func (c *cli) apply(o *sweep.Options) (err error) {
	o.Size = apps.Small
	if c.size == "paper" {
		o.Size = apps.Paper
	}
	o.Workers = c.parallel
	o.Verify = c.verify
	o.Histograms = c.latency
	o.Fork = c.fork
	o.Config.ShareProfile = c.prof
	o.Config.CritPath = c.crit
	o.Config.SampleEvery = sim.Time(c.sampleEvery)
	o.Config.StaticHomes = c.staticHomes
	if c.whatIf != "" {
		if o.Config.WhatIf, err = critpath.ParseScale(c.whatIf); err != nil {
			return err
		}
	}
	switch {
	case c.faults != "" && c.faultGrid != "":
		return errors.New("-faults and -fault-grid exclude each other: give every variant its own plan")
	case c.faults != "":
		o.Config.Faults, err = faults.Parse(c.faults)
	case c.faultGrid != "":
		o.FaultGrid, err = parseGrid(c.faultGrid)
	}
	if err != nil {
		return err
	}
	if c.fork && len(o.FaultGrid) == 0 {
		return errors.New("-fork needs a -fault-grid to share warmup prefixes across")
	}
	return nil
}

// parseGrid parses the -fault-grid syntax: semicolon-separated NAME[:SPEC]
// variants, SPEC in the -faults clause language; a variant without a SPEC
// is the healthy machine.
func parseGrid(spec string) ([]sweep.FaultVariant, error) {
	var grid []sweep.FaultVariant
	for _, part := range strings.Split(spec, ";") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		name, clauses, _ := strings.Cut(part, ":")
		v := sweep.FaultVariant{Name: strings.TrimSpace(name)}
		if clauses != "" {
			var err error
			if v.Plan, err = faults.Parse(clauses); err != nil {
				return nil, fmt.Errorf("-fault-grid variant %q: %w", v.Name, err)
			}
		}
		grid = append(grid, v)
	}
	return grid, nil
}

// openSinks opens the -record file for appending as o's record writer and
// the -trace file afresh as its template's, and starts the -metrics-addr
// server as o's registry, announcing its address on stderr. close releases
// them all.
func (c *cli) openSinks(o *sweep.Options) error {
	for _, f := range []struct {
		path string
		w    *io.Writer
		mode int
	}{{c.record, &o.Record, os.O_APPEND}, {c.trace, &o.Config.Trace, os.O_TRUNC}} {
		if f.path == "" {
			continue
		}
		file, err := os.OpenFile(f.path, f.mode|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		c.closers = append(c.closers, file.Close)
		*f.w = file
	}
	if c.metricsAddr != "" {
		reg := sweep.NewRegistry()
		addr, stop, err := reg.Serve(c.metricsAddr)
		if err != nil {
			return err
		}
		c.closers = append(c.closers, func() error { stop(); return nil })
		fmt.Fprintf(c.stderr, "serving live metrics on http://%s/metrics\n", addr)
		o.Metrics = reg
	}
	return nil
}

// close closes every file openSinks opened and stops the metrics server,
// returning what the closes reported.
func (c *cli) close() error {
	var errs []error
	for _, f := range c.closers {
		errs = append(errs, f())
	}
	c.closers = nil
	return errors.Join(errs...)
}

// printForkSummary reports what prefix sharing bought a sweep — estimated
// flat wall time is the measured one plus the warmup re-simulation the
// forks avoided — and how many grid points it did not serve.
func printForkSummary(w io.Writer, fs sweep.ForkStats, wall time.Duration) {
	flatRuns := fmt.Sprintf("%d points ran flat, %d failed forks re-ran flat", fs.FlatRuns, fs.FailedForks)
	if fs.ForkedRuns == 0 {
		fmt.Fprintf(w, "fork: no runs forked (grid not forkable: ungated plans, refused cuts, or <2 forkable variants); %s\n", flatRuns)
		return
	}
	flat := wall + fs.SavedWall
	fmt.Fprintf(w, "fork: %d warmup prefixes served %d forked runs, %s; wall %v vs ~%v flat (est. %.2fx speedup)\n",
		fs.Prefixes, fs.ForkedRuns, flatRuns, wall.Round(time.Millisecond), flat.Round(time.Millisecond),
		float64(flat)/float64(wall))
}
