// Command dsmrun executes (application, protocol, granularity,
// notification) configurations through the sweep engine, and regenerates
// the paper's tables and figures. Every kind of run is one sweep of the
// points it needs, then a render of the finished results.
//
// A single configuration runs as a one-point sweep — its sequential
// baseline, the point and, under -whatif, the point's rescaled twin — and
// prints the execution time, the speedup and the full statistics breakdown:
//
//	dsmrun -app lu -protocol hlrc -block 4096 -notify polling -nodes 16 -size paper
//
// Every selector also accepts a comma-separated list (or "all"); the cross
// product then runs as a parallel sweep and prints one speedup row per
// configuration, with output byte-identical at every -parallel setting:
//
//	dsmrun -app lu,fft -protocol all -block 64,4096 -parallel 8
//
// -exp runs one of the harness's named experiments (or "all", in order)
// instead of the cross product: the points the experiments declare run as
// one sweep, each once however many tables read it ("-exp all" runs the
// Figure 1 points once for the fault tables and Tables 16/17 too), and the
// tables render from the finished runs. -protocol, when given, overrides
// the paper's protocol set.
// Under -fault-grid every matrix point runs once per variant and the tables
// render the first variant's runs:
//
//	dsmrun -list                                  # name every experiment
//	dsmrun -exp all -size paper -record runs.jsonl
//	dsmrun -exp fig1 -fault-grid 's1:drop=0.02,seed=1,start=6;s2:drop=0.02,seed=2,start=6' -fork
//
// -project writes one CSV table of a -record file, or an experiment's
// tables (or all) rendered from it as -exp printed them, or the Chrome
// trace-event JSON of a -trace file, to stdout instead:
//
//	dsmrun -project crit runs.jsonl > crit.csv
//	dsmrun -project all runs.jsonl > results.txt
//	dsmrun -project chrome trace.txt > trace.json
//
// Ctrl-C cancels in-flight simulations between virtual-time steps.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"time"

	"dsmsim"
	"dsmsim/internal/core"
	"dsmsim/internal/harness"
	"dsmsim/internal/metrics"
	"dsmsim/internal/profiling"
	"dsmsim/internal/proto"
	"dsmsim/internal/sweep"
	"dsmsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "dsmrun:", err)
		os.Exit(1)
	}
}

// run is main with its streams and arguments injected.
func run(args []string, stdout, stderr io.Writer) error {
	fs, body := newCommand(stdout, stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return body()
}

func (c *cli) run() (err error) {
	set, flags := map[string]bool{}, []string(nil)
	c.fs.Visit(func(f *flag.Flag) { set[f.Name], flags = true, append(flags, "-"+f.Name) })
	if set["project"] {
		return c.runProject(flags)
	}
	defer profiling.Start(c.cpuProfile, c.memProfile)()
	if c.list {
		for _, e := range harness.Experiments() {
			fmt.Fprintf(c.stdout, "%-10s %s\n", e.Name, e.Desc)
		}
		return nil
	}
	// named lists the flags among names given on the command line.
	named := func(names ...string) string {
		var given []string
		for _, n := range names {
			if set[n] {
				given = append(given, "-"+n)
			}
		}
		return strings.Join(given, "/")
	}

	o := sweep.Options{Progress: c.stderr}
	if err := c.apply(&o); err != nil {
		return err
	}
	if set["metrics-linger"] && c.metricsAddr == "" {
		return errors.New("-metrics-linger needs -metrics-addr")
	}
	if c.nodes < 1 || c.nodes > core.MaxNodes {
		return fmt.Errorf("-nodes %d: want 1 to %d", c.nodes, core.MaxNodes)
	}
	var exps []harness.Experiment
	if c.exp != "" {
		if f := named("app", "block", "notify"); f != "" {
			return fmt.Errorf("-exp and %s exclude each other: an experiment selects its own configurations", f)
		}
		if exps, err = harness.Select(c.exp); err != nil {
			return err
		}
	}
	spec := sweep.Spec{
		Apps:      splitList(c.app, dsmsim.AppNames()),
		Protocols: splitList(c.protocol, dsmsim.AllProtocols()),
		Nodes:     c.nodes,
	}
	if spec.Granularities, err = intList(c.block, dsmsim.Granularities); err != nil {
		return err
	}
	if spec.Notifies, err = notifyList(c.notify); err != nil {
		return err
	}
	// An empty list would fall back to the sweep's default, so a selector
	// that names nothing is refused instead.
	for _, sel := range []struct {
		flag, value string
		n           int
	}{{"app", c.app, len(spec.Apps)}, {"protocol", c.protocol, len(spec.Protocols)},
		{"block", c.block, len(spec.Granularities)}, {"notify", c.notify, len(spec.Notifies)}} {
		if sel.n == 0 {
			return fmt.Errorf("-%s %q selects nothing", sel.flag, sel.value)
		}
	}
	for _, p := range spec.Protocols {
		if _, ok := proto.Lookup(p); !ok {
			return fmt.Errorf("unknown protocol %q (registered: %s)", p, strings.Join(proto.Names(), ", "))
		}
	}

	points := len(spec.Apps) * len(spec.Protocols) * len(spec.Granularities) * len(spec.Notifies)
	single := c.exp == "" && points == 1 && len(o.FaultGrid) == 0
	if f := named("latency"); single && f != "" {
		return fmt.Errorf("only a sweep takes %s (1 configuration selected)", f)
	}
	if f := named("trace", "prof-top", "crit-top"); !single && f != "" {
		selected := fmt.Sprintf("%d configurations selected", points)
		if c.exp != "" {
			selected = "-exp " + c.exp + " selected"
		}
		return fmt.Errorf("only a single run takes %s (%s)", f, selected)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	defer func() { err = errors.Join(err, c.close()) }()
	if err := c.openSinks(&o); err != nil {
		return err
	}
	// Every kind of run is the points it runs and how it renders their
	// records: one sweep.Run, then the render.
	var keys []sweep.Key
	var render func([]sweep.Record) error
	switch {
	case single:
		keys, render = c.singleRun(spec, &o)
	case c.exp != "":
		if set["protocol"] {
			o.Protocols = spec.Protocols // the paper's set otherwise
		}
		keys = harness.PointsFor(o, c.nodes, exps)
		render = func(recs []sweep.Record) error { return harness.Render(c.stdout, recs, exps) }
	default:
		spec.Baselines, spec.Faults = true, o.FaultNames()
		keys, render = c.crossProduct(spec)
	}
	start := time.Now()
	recs, fork, err := sweep.Run(ctx, o, keys)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if err := render(recs); err != nil {
		return err
	}
	if o.Fork {
		if c.exp != "" {
			fmt.Fprintln(c.stdout) // set apart from the last table
		}
		printForkSummary(c.stdout, fork, wall)
	}
	// Hold the metrics endpoint open for interval-based scrapers that would
	// otherwise miss a short sweep entirely. Ctrl-C ends the linger early.
	if c.metricsLinger > 0 {
		select {
		case <-time.After(c.metricsLinger):
		case <-ctx.Done():
		}
	}
	return nil
}

// runProject writes the -project projection of the record file given as
// the one argument to stdout — a CSV table, or an experiment's tables
// through the render -exp uses — or under -project chrome the Chrome JSON
// of the trace file. It runs nothing, so it takes no other flag: flags are
// the ones the command line set. A name outside projections is refused
// before the file is opened.
func (c *cli) runProject(flags []string) error {
	if len(flags) > 1 || c.fs.NArg() != 1 {
		return fmt.Errorf("-project takes one record FILE and no other flag (flags: %s; files: %d)", strings.Join(flags, " "), c.fs.NArg())
	}
	if names := projections(); !slices.Contains(names, c.project) {
		return fmt.Errorf("-project %q: want one of %s", c.project, strings.Join(names, ", "))
	}
	path := c.fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var recs []sweep.Record
	if c.project == "chrome" {
		err = trace.Chrome(c.stdout, f)
	} else if recs, err = sweep.ReadRecords(f); err == nil && slices.Contains(sweep.Tables, c.project) {
		err = sweep.Project(c.stdout, c.project, recs)
	} else if exps, _ := harness.Select(c.project); err == nil { // "all" or an experiment's name
		err = harness.Render(c.stdout, recs, exps)
	}
	if err == nil {
		return nil
	}
	rerun := map[string]string{"prof": "-prof", "crit": "-crit", "sample": "-sample-every"}[c.project]
	if rerun != "" && errors.Is(err, sweep.ErrNoRows) {
		err = fmt.Errorf("%w (re-run with %s)", err, rerun)
	}
	return fmt.Errorf("%s: %w", path, err)
}

// crossProduct runs the cross product, each application's baseline first, and
// prints one speedup row per configuration.
func (c *cli) crossProduct(spec sweep.Spec) ([]sweep.Key, func([]sweep.Record) error) {
	return sweep.Dedupe(spec.Points()), func(recs []sweep.Record) error {
		// Fault-grid sweeps gain a fault column before the time.
		out, fault := c.stdout, func(string) string { return "" }
		if len(spec.Faults) > 0 {
			fault = func(name string) string { return fmt.Sprintf("%-10s ", name) }
		}
		fmt.Fprintf(out, "%-18s %-6s %6s %-9s %s%14s %8s\n", "app", "proto", "block", "notify", fault("fault"), "time", "speedup")
		seq := map[string]dsmsim.Time{} // each app's baseline comes first
		for _, r := range recs {
			k, res := r.Point, r.Result
			if k.Sequential {
				seq[k.App] = res.Time
				continue
			}
			fmt.Fprintf(out, "%-18s %-6s %5dB %-9s %s%14v %8.2f\n",
				k.App, k.Protocol, k.Block, k.Notify, fault(k.Fault), res.Time, ratio(seq[k.App], res.Time))
		}
		return nil
	}
}

// singleRun runs one configuration as a one-point sweep — its sequential
// baseline, the point and, under -whatif, the point's rescaled twin — and
// prints the point's full statistics dump.
func (c *cli) singleRun(spec sweep.Spec, o *sweep.Options) ([]sweep.Key, func([]sweep.Record) error) {
	o.Progress = nil // the statistics below stand in for the progress line
	// The what-if scale moves from the template onto the twin; the point
	// keeps the critical-path profiler, whose report predicts the twin.
	whatIf := o.Config.WhatIf
	o.Config.WhatIf = nil
	o.Config.CritPath = o.Config.CritPath || whatIf != nil
	point := sweep.Key{App: spec.Apps[0], Protocol: spec.Protocols[0], Block: spec.Granularities[0],
		Notify: spec.Notifies[0], Nodes: spec.Nodes}
	keys := []sweep.Key{sweep.Seq(point.App), point}
	if whatIf != nil {
		twin := point
		twin.WhatIf = whatIf.String()
		keys = append(keys, twin)
	}
	faulty := o.Config.Faults != nil
	return keys, func(recs []sweep.Record) error {
		// The records follow keys; without -whatif the point is its own twin.
		seq, res, rescaled := recs[0].Result, recs[1].Result, recs[len(recs)-1].Result
		out := c.stdout
		fmt.Fprintf(out, "%s  protocol=%s  block=%dB  notify=%s  nodes=%d\n",
			res.App, res.Protocol, res.BlockSize, res.Notify, res.Nodes)
		fmt.Fprintf(out, "  parallel time   %12v\n", res.Time)
		fmt.Fprintf(out, "  sequential time %12v\n", seq.Time)
		fmt.Fprintf(out, "  speedup         %12.2f\n", ratio(seq.Time, res.Time))
		fmt.Fprintf(out, "  read faults     %12d\n", res.Total.ReadFaults)
		fmt.Fprintf(out, "  write faults    %12d\n", res.Total.WriteFaults)
		fmt.Fprintf(out, "  invalidations   %12d\n", res.Total.Invalidations)
		fmt.Fprintf(out, "  twins/diffs     %6d / %d applied %d\n", res.Total.TwinsCreated, res.Total.DiffsCreated, res.Total.DiffsApplied)
		fmt.Fprintf(out, "  write notices   %12d\n", res.Total.WriteNoticesSent)
		fmt.Fprintf(out, "  lock acquires   %12d\n", res.Total.LockAcquires)
		fmt.Fprintf(out, "  barriers/node   %12d\n", res.Total.BarrierEntries/int64(res.Nodes))
		fmt.Fprintf(out, "  messages        %12d  (%.2f MB)\n", res.NetMsgs, float64(res.NetBytes)/1e6)
		if faulty {
			fmt.Fprintf(out, "  reliability     retx=%d timeouts=%d wire-drops=%d dups=%d acks=%d\n",
				res.Retransmits, res.Timeouts, res.WireDrops, res.Duplicates, res.AcksSent)
			if res.RetransmitLatency.Count > 0 {
				fmt.Fprintf(out, "    retransmit   %s\n", res.RetransmitLatency.Summary())
			}
		}
		fmt.Fprintf(out, "  blocks written  %12d  (multi-writer: %d)\n", res.BlocksWritten, res.MultiWriterBlocks)
		fmt.Fprintf(out, "  time breakdown (sums over %d nodes):\n", res.Nodes)
		fmt.Fprintf(out, "    compute  %v  read-stall %v  write-stall %v\n",
			res.Total.Compute, res.Total.ReadStall, res.Total.WriteStall)
		fmt.Fprintf(out, "    lock     %v  barrier    %v  flush       %v  stolen %v\n",
			res.Total.LockStall, res.Total.BarrierStall, res.Total.FlushTime, res.Total.Stolen)
		fmt.Fprintf(out, "  latency distributions:\n")
		fmt.Fprintf(out, "    read fault   %s\n", res.Total.ReadFaultTime.Summary())
		fmt.Fprintf(out, "    write fault  %s\n", res.Total.WriteFaultTime.Summary())
		fmt.Fprintf(out, "    message      %s\n", res.MsgLatency.Summary())
		fmt.Fprintf(out, "    lock wait    %s\n", res.Total.LockWait.Summary())
		fmt.Fprintf(out, "    barrier wait %s\n", res.Total.BarrierWait.Summary())
		printPhases(out, res)
		indent := func(write func(io.Writer, int) error, top int) {
			var rep strings.Builder
			write(&rep, top) // a Builder never fails a write
			fmt.Fprint(out, "  "+strings.ReplaceAll(strings.TrimSuffix(rep.String(), "\n"), "\n", "\n  ")+"\n")
		}
		if res.Sharing != nil {
			indent(res.Sharing.WriteText, c.profTop)
		}
		if res.CritPath != nil {
			indent(res.CritPath.WriteText, c.critTop)
		}
		if whatIf == nil {
			return nil
		}
		pred := res.CritPath.Predict(whatIf)
		fmt.Fprintf(out, "  what-if %s:\n", whatIf)
		fmt.Fprintf(out, "    baseline        %14v\n", res.Time)
		fmt.Fprintf(out, "    path-predicted  %14v  (%.3fx speedup)\n", pred, ratio(res.Time, pred))
		fmt.Fprintf(out, "    re-simulated    %14v  (%.3fx speedup)\n", rescaled.Time, ratio(res.Time, rescaled.Time))
		return nil
	}
}

// ratio guards the x/y speedup display against a zero counterfactual.
func ratio(x, y dsmsim.Time) float64 {
	if y == 0 {
		return 0
	}
	return float64(x) / float64(y)
}

// printPhases renders the phase-resolved cost breakdown (the paper's
// Figure-2 categories per barrier epoch). The component columns plus idle
// sum exactly to nodes × parallel time — the closing line shows the check.
func printPhases(out io.Writer, res *dsmsim.Result) {
	if len(res.Phases) == 0 {
		return
	}
	fmt.Fprintf(out, "  phase breakdown (%d phases at barrier epochs; sums over %d nodes):\n",
		len(res.Phases), res.Nodes)
	fmt.Fprintf(out, "    %-7s %14s %14s %14s %14s %14s\n",
		"phase", "span", "compute", "data", "sync", "proto")
	total := metrics.FoldPhases(res.Phases, 0)[0]
	total.Label = "total"
	for _, row := range append(metrics.FoldPhases(res.Phases, 12), total) {
		fmt.Fprintf(out, "    %-7s %14v %14v %14v %14v %14v\n",
			row.Label, row.Span, row.Delta.Compute, row.DataWait(), row.SyncWait(), row.Overhead())
	}
	fmt.Fprintf(out, "    idle (after last barrier) %v;  total+idle = %v = %d nodes x %v\n",
		res.Total.Idle, total.Span+res.Total.Idle, res.Nodes, res.Time)
}

// splitList parses a comma-separated selector; "all" (or "*") yields all.
func splitList(s string, all []string) []string {
	if s == "all" || s == "*" {
		return all
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func intList(s string, all []int) ([]int, error) {
	if s == "all" || s == "*" {
		return all, nil
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad block size %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func notifyList(s string) ([]dsmsim.Notify, error) {
	var out []dsmsim.Notify
	for _, p := range splitList(s, []string{"polling", "interrupt"}) {
		switch p {
		case "polling":
			out = append(out, dsmsim.Polling)
		case "interrupt":
			out = append(out, dsmsim.Interrupt)
		default:
			return nil, fmt.Errorf("unknown notification %q (want polling or interrupt)", p)
		}
	}
	return out, nil
}
