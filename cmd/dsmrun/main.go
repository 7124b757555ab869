// Command dsmrun executes (application, protocol, granularity,
// notification) configurations through the public dsmsim API.
//
// With a single configuration it prints the execution time, the speedup
// against the sequential baseline, and the full statistics breakdown:
//
//	dsmrun -app lu -protocol hlrc -block 4096 -notify polling -nodes 16 -size paper
//
// Every selector also accepts a comma-separated list (or "all"); the cross
// product then runs as a parallel sweep and prints one speedup row per
// configuration, with output byte-identical at every -parallel setting:
//
//	dsmrun -app lu,fft -protocol all -block 64,4096 -parallel 8
//
// Ctrl-C cancels in-flight simulations between virtual-time steps.
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"dsmsim"
	"dsmsim/internal/cliflags"
	"dsmsim/internal/sweep"
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

// cli holds dsmrun's own flags next to the ones it shares with dsmbench.
type cli struct {
	shared         *cliflags.Shared
	app            string
	protocol       string
	block          string
	notify         string
	verify         bool
	staticHomes    bool
	trace          string
	traceJSON      string
	record         string
	profTop        int
	critTop        int
	faultSeed      uint64
	faultGrid      string
	stdout, stderr io.Writer
}

// newCommand registers the flags on a fresh FlagSet and returns it with
// the command body to call after parsing.
func newCommand(stdout, stderr io.Writer) (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("dsmrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &cli{shared: cliflags.Register(fs), stdout: stdout, stderr: stderr}
	fs.StringVar(&c.app, "app", "lu", "application(s), comma-separated or 'all': "+strings.Join(dsmsim.AppNames(), ", "))
	fs.StringVar(&c.protocol, "protocol", "hlrc", "coherence protocol(s), comma-separated or 'all': "+strings.Join(dsmsim.AllProtocols(), ", "))
	fs.StringVar(&c.block, "block", "4096", "coherence granularity list in bytes (64, 256, 1024, 4096) or 'all'")
	fs.StringVar(&c.notify, "notify", "polling", "message notification(s): polling, interrupt, or both comma-separated")
	fs.BoolVar(&c.verify, "verify", true, "check numeric results against the sequential reference")
	fs.BoolVar(&c.staticHomes, "static-homes", false, "disable first-touch home migration (ablation; single runs only)")
	fs.StringVar(&c.trace, "trace", "", "write a deterministic line-format event trace (single runs only)")
	fs.StringVar(&c.traceJSON, "trace-json", "", "write a Chrome trace-event JSON file (single runs only)")
	fs.StringVar(&c.record, "record", "", "append each run's JSON record (the point and its full result; a sweep's baselines too) to this file, one line per run")
	fs.IntVar(&c.profTop, "prof-top", 10, "regions shown in the single-run sharing report (0 = all)")
	fs.IntVar(&c.critTop, "crit-top", 5, "nodes/regions shown in the single-run critical-path report (0 = all)")
	fs.Uint64Var(&c.faultSeed, "fault-seed", 0, "override the fault plan's PRNG seed (0 keeps the plan's seed)")
	fs.StringVar(&c.faultGrid, "fault-grid", "", "semicolon-separated fault variants NAME[:SPEC] (SPEC as in -faults; empty = healthy); every configuration runs once per variant, and -fork shares their warmup prefixes")
	return fs, c.run
}

func (c *cli) run() (err error) {
	s := c.shared
	defer s.StartProfile()()
	o := sweep.Options{Verify: c.verify, Progress: c.stderr}
	if err := s.Apply(&o); err != nil {
		return err
	}
	if o.Config.Faults, err = s.Plan(c.faultSeed); err != nil {
		return err
	}
	if o.FaultGrid, err = s.Grid(c.faultGrid); err != nil {
		return err
	}
	if s.Fork && len(o.FaultGrid) == 0 {
		return errors.New("-fork needs a -fault-grid to share warmup prefixes across")
	}
	spec := dsmsim.SweepSpec{
		Apps:      splitList(c.app, dsmsim.AppNames()),
		Protocols: splitList(c.protocol, dsmsim.AllProtocols()),
		Nodes:     s.Nodes,
		Size:      o.Size,
	}
	if spec.Granularities, err = intList(c.block, dsmsim.Granularities); err != nil {
		return err
	}
	if spec.Notify, err = notifyList(c.notify); err != nil {
		return err
	}
	points := len(spec.Apps) * len(spec.Protocols) * len(spec.Granularities) * len(spec.Notify)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	defer func() { err = errors.Join(err, s.Close()) }()

	if points == 1 && len(o.FaultGrid) == 0 {
		if s.MetricsAddr != "" {
			return errors.New("-metrics-addr applies to sweeps only (1 configuration selected)")
		}
		return c.runOne(ctx, spec, o)
	}
	if c.staticHomes || c.trace != "" || c.traceJSON != "" {
		return fmt.Errorf("-static-homes/-trace/-trace-json apply to single runs only (%d configurations selected)", points)
	}
	return c.runSweep(ctx, spec, o)
}

// runSweep fans the cross product out over the worker pool and prints one
// speedup row per configuration.
func (c *cli) runSweep(ctx context.Context, spec dsmsim.SweepSpec, o sweep.Options) error {
	if err := c.shared.OpenSinks(&o, c.stderr); err != nil {
		return err
	}
	var err error
	if o.Record, err = c.shared.Append(c.record); err != nil {
		return err
	}
	start := time.Now()
	// One option carrying the whole struct: every setting is already in o.
	res, err := dsmsim.Sweep(ctx, spec, func(so *sweep.Options) { *so = o })
	if err != nil {
		return err
	}
	wall := time.Since(start)
	// Fault-grid sweeps gain a fault column before the time.
	out, fault := c.stdout, func(string) string { return "" }
	if len(o.FaultGrid) > 0 {
		fault = func(name string) string { return fmt.Sprintf("%-10s ", name) }
	}
	fmt.Fprintf(out, "%-18s %-6s %6s %-9s %s%14s %8s\n", "app", "proto", "block", "notify", fault("fault"), "time", "speedup")
	for _, run := range res.Runs {
		if p := run.Point; !p.Sequential {
			fmt.Fprintf(out, "%-18s %-6s %5dB %-9s %s%14v %8.2f\n",
				p.App, p.Protocol, p.Block, p.Notify, fault(p.Fault), run.Result.Time, res.Speedup(run))
		}
	}
	if o.Fork {
		cliflags.PrintForkSummary(out, res.Fork, wall)
	}
	return nil
}

// runOne executes a single configuration with the full statistics dump.
// Its -prof-csv, -crit-csv and -sample-csv files hold that one run alone:
// written fresh, without the run-key columns a sweep prefixes.
func (c *cli) runOne(ctx context.Context, spec dsmsim.SweepSpec, o sweep.Options) error {
	s, out := c.shared, c.stdout
	if s.SampleCSV != "" && s.SampleEvery <= 0 {
		return errors.New("-sample-csv needs -sample-every")
	}
	cfg := o.Config
	cfg.Nodes, cfg.BlockSize, cfg.Protocol, cfg.Notify = spec.Nodes, spec.Granularities[0], spec.Protocols[0], spec.Notify[0]
	cfg.StaticHomes = c.staticHomes
	// A what-if runs the baseline first — with the critical-path profiler,
	// whose report predicts the speedup — and the rescaled machine after.
	whatIf := cfg.WhatIf
	cfg.WhatIf = nil
	cfg.CritPath = cfg.CritPath || whatIf != nil

	opts := []dsmsim.Option{dsmsim.WithVerify(c.verify)}
	var traces []func() error
	for _, t := range []struct {
		path string
		with func(io.Writer) dsmsim.Option
	}{{c.trace, dsmsim.WithTrace}, {c.traceJSON, dsmsim.WithTraceJSON}} {
		if t.path == "" {
			continue
		}
		f, err := os.Create(t.path)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		traces = append(traces, w.Flush, f.Close)
		opts = append(opts, t.with(w))
	}
	workload, err := dsmsim.NewApp(spec.Apps[0], spec.Size)
	if err != nil {
		return err
	}
	res, err := dsmsim.Start(ctx, cfg, workload, opts...)
	for _, done := range traces {
		err = errors.Join(err, done())
	}
	if err != nil {
		return err
	}

	// Sequential baseline for the speedup.
	seqApp, _ := dsmsim.NewApp(spec.Apps[0], spec.Size)
	seq, err := dsmsim.Start(ctx, dsmsim.Config{Sequential: true, BlockSize: 4096}, seqApp)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%s  protocol=%s  block=%dB  notify=%s  nodes=%d\n",
		res.App, res.Protocol, res.BlockSize, res.Notify, res.Nodes)
	fmt.Fprintf(out, "  parallel time   %12v\n", res.Time)
	fmt.Fprintf(out, "  sequential time %12v\n", seq.Time)
	fmt.Fprintf(out, "  speedup         %12.2f\n", float64(seq.Time)/float64(res.Time))
	fmt.Fprintf(out, "  read faults     %12d\n", res.Total.ReadFaults)
	fmt.Fprintf(out, "  write faults    %12d\n", res.Total.WriteFaults)
	fmt.Fprintf(out, "  invalidations   %12d\n", res.Total.Invalidations)
	fmt.Fprintf(out, "  twins/diffs     %6d / %d applied %d\n", res.Total.TwinsCreated, res.Total.DiffsCreated, res.Total.DiffsApplied)
	fmt.Fprintf(out, "  write notices   %12d\n", res.Total.WriteNoticesSent)
	fmt.Fprintf(out, "  lock acquires   %12d\n", res.Total.LockAcquires)
	fmt.Fprintf(out, "  barriers/node   %12d\n", res.Total.BarrierEntries/int64(res.Nodes))
	fmt.Fprintf(out, "  messages        %12d  (%.2f MB)\n", res.NetMsgs, float64(res.NetBytes)/1e6)
	if cfg.Faults != nil {
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
	if whatIf != nil {
		wiApp, err := dsmsim.NewApp(spec.Apps[0], spec.Size)
		if err != nil {
			return err
		}
		wcfg := cfg
		wcfg.WhatIf, wcfg.ShareProfile, wcfg.CritPath = whatIf, false, false
		wres, err := dsmsim.Start(ctx, wcfg, wiApp, dsmsim.WithVerify(c.verify))
		if err != nil {
			return err
		}
		pred := res.CritPath.Predict(whatIf)
		fmt.Fprintf(out, "  what-if %s:\n", whatIf)
		fmt.Fprintf(out, "    baseline        %14v\n", res.Time)
		fmt.Fprintf(out, "    path-predicted  %14v  (%.3fx speedup)\n", pred, ratio(res.Time, pred))
		fmt.Fprintf(out, "    re-simulated    %14v  (%.3fx speedup)\n", wres.Time, ratio(res.Time, wres.Time))
	}

	// The run's CSV row and record go through the sink a sweep's take:
	// same schema and point, header only into an empty file.
	var sinks sweep.Options
	if sinks.CSV, err = s.Append(s.CSV); err == nil {
		sinks.Record, err = s.Append(c.record)
	}
	if err != nil {
		return err
	}
	point := sweep.Key{App: spec.Apps[0], Protocol: cfg.Protocol, Block: cfg.BlockSize, Notify: cfg.Notify, Nodes: cfg.Nodes}
	if err := sweep.SinkFor(sinks).Emit(point, res); err != nil {
		return err
	}
	// A flag names its file only with its observer on (Apply, the check
	// above), so the report each bound method belongs to is non-nil.
	files := []struct {
		path  string
		write func(io.Writer) error
	}{{s.ProfCSV, res.Sharing.WriteCSV}, {s.CritCSV, res.CritPath.WriteCSV}, {s.SampleCSV, res.Samples.WriteCSV}}
	for _, f := range files {
		if f.path != "" {
			var b bytes.Buffer
			f.write(&b) // a Buffer never fails a write
			if err := os.WriteFile(f.path, b.Bytes(), 0o666); err != nil {
				return err
			}
		}
	}
	return nil
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
	const maxRows = 12
	fmt.Fprintf(out, "  phase breakdown (%d phases at barrier epochs; sums over %d nodes):\n",
		len(res.Phases), res.Nodes)
	fmt.Fprintf(out, "    %-7s %14s %14s %14s %14s %14s\n",
		"phase", "span", "compute", "data", "sync", "proto")
	row := func(label string, span, compute, data, sync, proto dsmsim.Time) {
		fmt.Fprintf(out, "    %-7s %14v %14v %14v %14v %14v\n", label, span, compute, data, sync, proto)
	}
	shown := res.Phases
	var rest []dsmsim.Phase
	if len(shown) > maxRows {
		shown, rest = shown[:maxRows], shown[maxRows:]
	}
	var span, compute, data, sync, proto dsmsim.Time
	add := func(ph dsmsim.Phase) (s, c, d, y, p dsmsim.Time) {
		s, c, d, y, p = ph.Span, ph.Delta.Compute, ph.DataWait(), ph.SyncWait(), ph.Overhead()
		span += s
		compute += c
		data += d
		sync += y
		proto += p
		return
	}
	for _, ph := range shown {
		s, c, d, y, p := add(ph)
		row(fmt.Sprintf("%d", ph.Index), s, c, d, y, p)
	}
	if len(rest) > 0 {
		var s, c, d, y, p dsmsim.Time
		for _, ph := range rest {
			rs, rc, rd, ry, rp := add(ph)
			s, c, d, y, p = s+rs, c+rc, d+rd, y+ry, p+rp
		}
		row(fmt.Sprintf("%d-%d", rest[0].Index, rest[len(rest)-1].Index), s, c, d, y, p)
	}
	row("total", span, compute, data, sync, proto)
	fmt.Fprintf(out, "    idle (after last barrier) %v;  total+idle = %v = %d nodes x %v\n",
		res.Total.Idle, span+res.Total.Idle, res.Nodes, res.Time)
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
