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
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"dsmsim"
	"dsmsim/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fatal(err)
	}
}

// stdout and stderr are the streams the command writes to.
var stdout, stderr io.Writer = os.Stdout, os.Stderr

// run is main with its streams and arguments injected.
func run(args []string, out, errw io.Writer) error {
	fs, body := newCommand(out, errw)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return body()
}

// newCommand registers the flags on a fresh FlagSet and returns it with
// the command body to call after parsing.
func newCommand(out, errw io.Writer) (*flag.FlagSet, func() error) {
	stdout, stderr = out, errw
	fs := flag.NewFlagSet("dsmrun", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		app      = fs.String("app", "lu", "application(s), comma-separated or 'all': "+strings.Join(dsmsim.AppNames(), ", "))
		protocol = fs.String("protocol", "hlrc", "coherence protocol(s), comma-separated or 'all': "+strings.Join(dsmsim.AllProtocols(), ", "))
		block    = fs.String("block", "4096", "coherence granularity list in bytes (64, 256, 1024, 4096) or 'all'")
		notify   = fs.String("notify", "polling", "message notification(s): polling, interrupt, or both comma-separated")
		nodes    = fs.Int("nodes", 16, "cluster size")
		size     = fs.String("size", "small", "problem size: small or paper")
		verify   = fs.Bool("verify", true, "check numeric results against the sequential reference")
		parallel = fs.Int("parallel", 0, "max simulation runs in flight for sweeps (0 = one per CPU)")
		static   = fs.Bool("static-homes", false, "disable first-touch home migration (ablation; single runs only)")
		trace    = fs.String("trace", "", "write a deterministic line-format event trace (single runs only)")
		traceJS  = fs.String("trace-json", "", "write a Chrome trace-event JSON file (single runs only)")
		csvPath  = fs.String("csv", "", "append one machine-readable record per run to this file")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file at exit")

		prof    = fs.Bool("prof", false, "attach the sharing-pattern profiler (per-region taxonomy and true/false-sharing attribution)")
		profCSV = fs.String("prof-csv", "", "write sharing profiles as CSV to this file (implies -prof; appends for sweeps)")
		profTop = fs.Int("prof-top", 10, "regions shown in the single-run sharing report (0 = all)")

		crit    = fs.Bool("crit", false, "attach the critical-path profiler (exact longest dependency chain, attributed per component/node/region)")
		critCSV = fs.String("crit-csv", "", "write critical-path component rows as CSV to this file (implies -crit; appends for sweeps)")
		critTop = fs.Int("crit-top", 5, "nodes/regions shown in the single-run critical-path report (0 = all)")
		whatIf  = fs.String("whatif", "", "what-if analysis: rescale one cost class (compute, msg, svc, lock, barrier) and re-simulate, e.g. 'lock=0.5'; single runs print predicted vs measured speedup")

		sampleEvery = fs.Duration("sample-every", 0, "virtual-time metrics sampling interval (e.g. 100us; 0 = off)")
		sampleCSV   = fs.String("sample-csv", "", "write the sampler time-series as CSV to this file (needs -sample-every)")
		sampleJSON  = fs.String("sample-json", "", "write Chrome-trace counter tracks to this file (single runs only; needs -sample-every)")
		metricsAddr = fs.String("metrics-addr", "", "serve live sweep metrics over HTTP on this address (sweeps only)")

		faultSpec = fs.String("faults", "", "deterministic fault plan: drop=P,dup=P,jitter=DUR,partition=A-B@FROM:TO,linkdrop=A-B:P,rto=DUR,seed=N,start=K")
		faultSeed = fs.Uint64("fault-seed", 0, "override the fault plan's PRNG seed (0 keeps the plan's seed)")
		straggler = fs.String("straggler", "", "straggler node(s): NODExFACTOR[@FROM:TO], comma-separated (e.g. '3x2.5' or '0x4@10ms:20ms')")

		faultGrid  = fs.String("fault-grid", "", "semicolon-separated fault variants NAME[:SPEC] (SPEC as in -faults; empty = healthy); every configuration runs once per variant")
		fork       = fs.Bool("fork", false, "share warmup prefixes across -fault-grid variants: simulate each group's pre-fault prefix once and fork it per variant (output stays byte-identical)")
		forkWarmup = fs.Int("fork-warmup", 0, "gate every fault plan on barrier K (adds start=K to -faults and each -fault-grid variant)")
	)
	return fs, func() error {
		defer profiling.Start(*cpuProf, *memProf)()

		sz := dsmsim.Small
		if *size == "paper" {
			sz = dsmsim.Paper
		}

		spec := dsmsim.SweepSpec{
			Apps:          splitList(*app, dsmsim.AppNames()),
			Protocols:     splitList(*protocol, dsmsim.AllProtocols()),
			Granularities: intList(*block, dsmsim.Granularities),
			Notify:        notifyList(*notify),
			Nodes:         *nodes,
			Size:          sz,
		}
		points := len(spec.Apps) * len(spec.Protocols) * len(spec.Granularities) * len(spec.Notify)
		plan := faultPlan(*faultSpec, *faultSeed, *straggler)
		if *forkWarmup > 0 && plan != nil {
			plan.Add(dsmsim.StartAtBarrier(*forkWarmup))
		}
		grid := parseGrid(*faultGrid, *forkWarmup)
		if *fork && len(grid) == 0 {
			fatal(fmt.Errorf("-fork needs a -fault-grid to share warmup prefixes across"))
		}

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()

		if *profCSV != "" {
			*prof = true
		}
		if *critCSV != "" {
			*crit = true
		}
		var scale *dsmsim.CritScale
		if *whatIf != "" {
			var err error
			if scale, err = dsmsim.ParseWhatIf(*whatIf); err != nil {
				fatal(err)
			}
		}
		if points == 1 && len(grid) == 0 {
			if *metricsAddr != "" {
				fatal(fmt.Errorf("-metrics-addr applies to sweeps only (1 configuration selected)"))
			}
			runOne(ctx, spec, plan, *verify, *static, *trace, *traceJS,
				dsmsim.Time(*sampleEvery), *sampleCSV, *sampleJSON, *prof, *profCSV, *profTop,
				*crit, *critCSV, *critTop, scale)
			return nil
		}
		if *static || *trace != "" || *traceJS != "" || *sampleJSON != "" {
			fatal(fmt.Errorf("-static-homes/-trace/-trace-json/-sample-json apply to single runs only (%d configurations selected)", points))
		}
		runSweep(ctx, spec, plan, grid, *fork, *verify, *parallel, *csvPath,
			dsmsim.Time(*sampleEvery), *sampleCSV, *metricsAddr, *prof, *profCSV,
			*crit, *critCSV, scale)
		return nil
	}
}

// parseGrid parses the -fault-grid syntax: semicolon-separated
// NAME[:SPEC] variants, SPEC in the -faults clause language. warmup > 0
// adds a start=K gate to every non-healthy variant.
func parseGrid(s string, warmup int) []dsmsim.FaultVariant {
	if s == "" {
		return nil
	}
	var grid []dsmsim.FaultVariant
	for _, part := range strings.Split(s, ";") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		name, spec, _ := strings.Cut(part, ":")
		v := dsmsim.FaultVariant{Name: strings.TrimSpace(name)}
		if spec != "" {
			plan, err := dsmsim.ParseFaults(spec)
			if err != nil {
				fatal(fmt.Errorf("-fault-grid variant %q: %v", v.Name, err))
			}
			if warmup > 0 {
				plan.Add(dsmsim.StartAtBarrier(warmup))
			}
			v.Plan = plan
		}
		grid = append(grid, v)
	}
	return grid
}

// faultPlan builds the fault plan from the -faults / -fault-seed /
// -straggler flags; nil when none are set.
func faultPlan(spec string, seed uint64, straggler string) *dsmsim.FaultPlan {
	if spec == "" && seed == 0 && straggler == "" {
		return nil
	}
	plan, err := dsmsim.ParseFaults(spec)
	if err != nil {
		fatal(err)
	}
	if straggler != "" {
		rules, err := dsmsim.ParseStragglers(straggler)
		if err != nil {
			fatal(err)
		}
		plan.Add(rules...)
	}
	if seed != 0 {
		plan.Add(dsmsim.FaultSeed(seed))
	}
	return plan
}

// runSweep fans the cross product out over the worker pool and prints one
// speedup row per configuration.
func runSweep(ctx context.Context, spec dsmsim.SweepSpec, plan *dsmsim.FaultPlan, grid []dsmsim.FaultVariant, fork, verify bool, parallel int, csvPath string,
	sampleEvery dsmsim.Time, sampleCSV, metricsAddr string, prof bool, profCSV string,
	crit bool, critCSV string, whatIf *dsmsim.CritScale) {
	opts := []dsmsim.Option{
		dsmsim.WithParallelism(parallel),
		dsmsim.WithProgress(stderr),
		dsmsim.WithVerify(verify),
	}
	if len(grid) > 0 {
		opts = append(opts, dsmsim.WithFaultGrid(grid...))
	}
	if fork {
		opts = append(opts, dsmsim.WithFork())
	}
	if prof {
		opts = append(opts, dsmsim.WithShareProfile())
	}
	if profCSV != "" {
		f, err := os.OpenFile(profCSV, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts = append(opts, dsmsim.WithProfCSV(f))
	}
	if crit {
		opts = append(opts, dsmsim.WithCritPath())
	}
	if critCSV != "" {
		f, err := os.OpenFile(critCSV, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts = append(opts, dsmsim.WithCritCSV(f))
	}
	if whatIf != nil {
		opts = append(opts, dsmsim.WithWhatIf(whatIf))
	}
	if plan != nil {
		opts = append(opts, dsmsim.WithFaults(plan))
	}
	if csvPath != "" {
		f, err := os.OpenFile(csvPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts = append(opts, dsmsim.WithCSV(f))
	}
	if sampleEvery > 0 {
		opts = append(opts, dsmsim.WithSampleEvery(sampleEvery))
	}
	if sampleCSV != "" {
		if sampleEvery <= 0 {
			fatal(fmt.Errorf("-sample-csv needs -sample-every"))
		}
		f, err := os.OpenFile(sampleCSV, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts = append(opts, dsmsim.WithSampleCSV(f))
	}
	if metricsAddr != "" {
		reg := dsmsim.NewMetrics()
		addr, stop, err := reg.Serve(metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Fprintf(stderr, "serving live metrics on http://%s/metrics\n", addr)
		opts = append(opts, dsmsim.WithMetrics(reg))
	}
	start := time.Now()
	res, err := dsmsim.Sweep(ctx, spec, opts...)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)
	if len(grid) > 0 {
		fmt.Fprintf(stdout, "%-18s %-6s %6s %-9s %-10s %14s %8s\n", "app", "proto", "block", "notify", "fault", "time", "speedup")
	} else {
		fmt.Fprintf(stdout, "%-18s %-6s %6s %-9s %14s %8s\n", "app", "proto", "block", "notify", "time", "speedup")
	}
	for _, run := range res.Runs {
		if run.Point.Sequential {
			continue
		}
		if len(grid) > 0 {
			fmt.Fprintf(stdout, "%-18s %-6s %5dB %-9s %-10s %14v %8.2f\n",
				run.Point.App, run.Point.Protocol, run.Point.Block, run.Point.Notify,
				run.Point.Fault, run.Result.Time, res.Speedup(run))
		} else {
			fmt.Fprintf(stdout, "%-18s %-6s %5dB %-9s %14v %8.2f\n",
				run.Point.App, run.Point.Protocol, run.Point.Block, run.Point.Notify,
				run.Result.Time, res.Speedup(run))
		}
	}
	if fork {
		printForkSummary(res.Fork, wall)
	}
}

// printForkSummary reports what prefix sharing bought the sweep: the
// estimated flat wall time is the measured one plus the warmup
// re-simulation the forks avoided.
func printForkSummary(fs dsmsim.ForkStats, wall time.Duration) {
	if fs.ForkedRuns == 0 {
		fmt.Fprintf(stdout, "fork: no runs forked (grid not forkable: ungated plans, non-barrier apps, or <2 forkable variants)\n")
		return
	}
	flat := wall + fs.SavedWall
	fmt.Fprintf(stdout, "fork: %d warmup prefixes served %d forked runs; wall %v vs ~%v flat (est. %.2fx speedup)\n",
		fs.Prefixes, fs.ForkedRuns, wall.Round(time.Millisecond), flat.Round(time.Millisecond),
		float64(flat)/float64(wall))
}

// runOne executes a single configuration with the full statistics dump.
func runOne(ctx context.Context, spec dsmsim.SweepSpec, plan *dsmsim.FaultPlan, verify, static bool, trace, traceJS string,
	sampleEvery dsmsim.Time, sampleCSV, sampleJSON string, prof bool, profCSV string, profTop int,
	crit bool, critCSV string, critTop int, whatIf *dsmsim.CritScale) {
	if (sampleCSV != "" || sampleJSON != "") && sampleEvery <= 0 {
		fatal(fmt.Errorf("-sample-csv/-sample-json need -sample-every"))
	}
	if whatIf != nil {
		// The what-if comparison needs the baseline's critical path for
		// its prediction.
		crit = true
	}
	cfg := dsmsim.Config{
		Nodes: spec.Nodes, BlockSize: spec.Granularities[0], Protocol: spec.Protocols[0],
		Notify: spec.Notify[0], StaticHomes: static, SampleEvery: sampleEvery,
	}
	opts := []dsmsim.Option{dsmsim.WithVerify(verify)}
	if prof {
		opts = append(opts, dsmsim.WithShareProfile())
	}
	if crit {
		opts = append(opts, dsmsim.WithCritPath())
	}
	if plan != nil {
		opts = append(opts, dsmsim.WithFaults(plan))
	}
	if trace != "" {
		f, err := os.Create(trace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		opts = append(opts, dsmsim.WithTrace(w))
	}
	if traceJS != "" {
		f, err := os.Create(traceJS)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		opts = append(opts, dsmsim.WithTraceJSON(w))
	}
	workload, err := dsmsim.NewApp(spec.Apps[0], spec.Size)
	if err != nil {
		fatal(err)
	}
	res, err := dsmsim.Start(ctx, cfg, workload, opts...)
	if err != nil {
		fatal(err)
	}

	// Sequential baseline for the speedup.
	seqApp, _ := dsmsim.NewApp(spec.Apps[0], spec.Size)
	seq, err := dsmsim.Start(ctx, dsmsim.Config{Sequential: true, BlockSize: 4096}, seqApp)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(stdout, "%s  protocol=%s  block=%dB  notify=%s  nodes=%d\n",
		res.App, res.Protocol, res.BlockSize, res.Notify, res.Nodes)
	fmt.Fprintf(stdout, "  parallel time   %12v\n", res.Time)
	fmt.Fprintf(stdout, "  sequential time %12v\n", seq.Time)
	fmt.Fprintf(stdout, "  speedup         %12.2f\n", float64(seq.Time)/float64(res.Time))
	fmt.Fprintf(stdout, "  read faults     %12d\n", res.Total.ReadFaults)
	fmt.Fprintf(stdout, "  write faults    %12d\n", res.Total.WriteFaults)
	fmt.Fprintf(stdout, "  invalidations   %12d\n", res.Total.Invalidations)
	fmt.Fprintf(stdout, "  twins/diffs     %6d / %d applied %d\n", res.Total.TwinsCreated, res.Total.DiffsCreated, res.Total.DiffsApplied)
	fmt.Fprintf(stdout, "  write notices   %12d\n", res.Total.WriteNoticesSent)
	fmt.Fprintf(stdout, "  lock acquires   %12d\n", res.Total.LockAcquires)
	fmt.Fprintf(stdout, "  barriers/node   %12d\n", res.Total.BarrierEntries/int64(res.Nodes))
	fmt.Fprintf(stdout, "  messages        %12d  (%.2f MB)\n", res.NetMsgs, float64(res.NetBytes)/1e6)
	if plan != nil {
		fmt.Fprintf(stdout, "  reliability     retx=%d timeouts=%d wire-drops=%d dups=%d acks=%d\n",
			res.Retransmits, res.Timeouts, res.WireDrops, res.Duplicates, res.AcksSent)
		if res.RetransmitLatency.Count > 0 {
			fmt.Fprintf(stdout, "    retransmit   %s\n", res.RetransmitLatency.Summary())
		}
	}
	fmt.Fprintf(stdout, "  blocks written  %12d  (multi-writer: %d)\n", res.BlocksWritten, res.MultiWriterBlocks)
	fmt.Fprintf(stdout, "  time breakdown (sums over %d nodes):\n", res.Nodes)
	fmt.Fprintf(stdout, "    compute  %v  read-stall %v  write-stall %v\n",
		res.Total.Compute, res.Total.ReadStall, res.Total.WriteStall)
	fmt.Fprintf(stdout, "    lock     %v  barrier    %v  flush       %v  stolen %v\n",
		res.Total.LockStall, res.Total.BarrierStall, res.Total.FlushTime, res.Total.Stolen)
	fmt.Fprintf(stdout, "  latency distributions:\n")
	fmt.Fprintf(stdout, "    read fault   %s\n", res.Total.ReadFaultTime.Summary())
	fmt.Fprintf(stdout, "    write fault  %s\n", res.Total.WriteFaultTime.Summary())
	fmt.Fprintf(stdout, "    message      %s\n", res.MsgLatency.Summary())
	fmt.Fprintf(stdout, "    lock wait    %s\n", res.Total.LockWait.Summary())
	fmt.Fprintf(stdout, "    barrier wait %s\n", res.Total.BarrierWait.Summary())
	printPhases(res)
	if res.Sharing != nil {
		var rep strings.Builder
		res.Sharing.WriteText(&rep, profTop)
		fmt.Fprint(stdout, "  "+strings.ReplaceAll(strings.TrimSuffix(rep.String(), "\n"), "\n", "\n  ")+"\n")
		if profCSV != "" {
			f, err := os.Create(profCSV)
			if err != nil {
				fatal(err)
			}
			if err := res.Sharing.WriteCSV(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}

	if res.CritPath != nil {
		var rep strings.Builder
		res.CritPath.WriteText(&rep, critTop)
		fmt.Fprint(stdout, "  "+strings.ReplaceAll(strings.TrimSuffix(rep.String(), "\n"), "\n", "\n  ")+"\n")
		if critCSV != "" {
			f, err := os.Create(critCSV)
			if err != nil {
				fatal(err)
			}
			if err := res.CritPath.WriteCSV(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}
	if whatIf != nil {
		wiApp, err := dsmsim.NewApp(spec.Apps[0], spec.Size)
		if err != nil {
			fatal(err)
		}
		wopts := []dsmsim.Option{dsmsim.WithVerify(verify), dsmsim.WithWhatIf(whatIf)}
		if plan != nil {
			wopts = append(wopts, dsmsim.WithFaults(plan))
		}
		wres, err := dsmsim.Start(ctx, cfg, wiApp, wopts...)
		if err != nil {
			fatal(err)
		}
		pred := res.CritPath.Predict(whatIf)
		fmt.Fprintf(stdout, "  what-if %s:\n", whatIf)
		fmt.Fprintf(stdout, "    baseline        %14v\n", res.Time)
		fmt.Fprintf(stdout, "    path-predicted  %14v  (%.3fx speedup)\n", pred, ratio(res.Time, pred))
		fmt.Fprintf(stdout, "    re-simulated    %14v  (%.3fx speedup)\n", wres.Time, ratio(res.Time, wres.Time))
	}

	if sampleCSV != "" {
		if err := writeSamples(sampleCSV, res, (*dsmsim.Series).WriteCSV); err != nil {
			fatal(err)
		}
	}
	if sampleJSON != "" {
		if err := writeSamples(sampleJSON, res, (*dsmsim.Series).WriteCounterJSON); err != nil {
			fatal(err)
		}
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
func printPhases(res *dsmsim.Result) {
	if len(res.Phases) == 0 {
		return
	}
	const maxRows = 12
	fmt.Fprintf(stdout, "  phase breakdown (%d phases at barrier epochs; sums over %d nodes):\n",
		len(res.Phases), res.Nodes)
	fmt.Fprintf(stdout, "    %-7s %14s %14s %14s %14s %14s\n",
		"phase", "span", "compute", "data", "sync", "proto")
	row := func(label string, span, compute, data, sync, proto dsmsim.Time) {
		fmt.Fprintf(stdout, "    %-7s %14v %14v %14v %14v %14v\n", label, span, compute, data, sync, proto)
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
	fmt.Fprintf(stdout, "    idle (after last barrier) %v;  total+idle = %v = %d nodes x %v\n",
		res.Total.Idle, span+res.Total.Idle, res.Nodes, res.Time)
}

// writeSamples streams the run's sampler series to path via write.
func writeSamples(path string, res *dsmsim.Result, write func(*dsmsim.Series, io.Writer) error) error {
	if res.Samples == nil {
		return fmt.Errorf("no sampler series on the result (is -sample-every set?)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(res.Samples, w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

func intList(s string, all []int) []int {
	if s == "all" || s == "*" {
		return all
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			fatal(fmt.Errorf("bad block size %q: %v", p, err))
		}
		out = append(out, v)
	}
	return out
}

func notifyList(s string) []dsmsim.Notify {
	var out []dsmsim.Notify
	for _, p := range splitList(s, []string{"polling", "interrupt"}) {
		switch p {
		case "polling":
			out = append(out, dsmsim.Polling)
		case "interrupt":
			out = append(out, dsmsim.Interrupt)
		default:
			fatal(fmt.Errorf("unknown notification %q (want polling or interrupt)", p))
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmrun:", err)
	os.Exit(1)
}
