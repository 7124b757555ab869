// Command dsmbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dsmbench -exp fig1 -size paper -nodes 16      # one experiment
//	dsmbench -exp all -size paper                 # everything, in order
//	dsmbench -exp all -parallel 8                 # 8 runs in flight
//	dsmbench -list                                # name every experiment
//
// The selected experiments' runs are prefetched over a worker pool
// (-parallel, defaulting to one worker per CPU) and memoized, so "-exp
// all" reuses the Figure 1 sweep for the fault tables and the Tables
// 16/17 statistics, and the tables render from completed runs. Output —
// tables, progress lines, CSV records — is byte-identical at every
// -parallel setting, including fully serial -parallel=1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"strconv"
	"strings"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/harness"
	"dsmsim/internal/metrics"
	"dsmsim/internal/profiling"
	"dsmsim/internal/sim"
	"dsmsim/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fatal(err)
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

// newCommand registers the flags on a fresh FlagSet and returns it with
// the command body to call after parsing.
func newCommand(stdout, stderr io.Writer) (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("dsmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment name (see -list) or 'all'")
		protocol = fs.String("protocol", "", "override the matrix experiments' protocol set, comma-separated or 'all' (default: the paper's "+strings.Join(core.Protocols, ", ")+"; registered: "+strings.Join(core.ProtocolNames(), ", ")+")")
		size     = fs.String("size", "small", "problem size: small or paper")
		nodes    = fs.Int("nodes", 16, "cluster size")
		verify   = fs.Bool("verify", false, "verify every run's numeric result (slow at paper size)")
		progress = fs.Bool("progress", true, "print one line per completed run to stderr")
		csvPath  = fs.String("csv", "", "append one machine-readable record per run to this file")
		latency  = fs.Bool("latency", false, "print latency-distribution summaries with progress lines")
		parallel = fs.Int("parallel", 0, "max simulation runs in flight (0 = one per CPU, 1 = serial)")
		list     = fs.Bool("list", false, "list experiments and exit")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file at exit")

		prof    = fs.Bool("prof", false, "attach the sharing-pattern profiler to every matrix run")
		profCSV = fs.String("prof-csv", "", "append every run's sharing profile as CSV to this file (implies -prof)")

		crit    = fs.Bool("crit", false, "attach the critical-path profiler to every matrix run")
		critCSV = fs.String("crit-csv", "", "append every run's critical-path component row as CSV to this file (implies -crit)")
		whatIf  = fs.String("whatif", "", "rescale one machine cost class on every matrix run, e.g. 'lock=0.5' (tables show the rescaled machine)")

		sampleEvery  = fs.Duration("sample-every", 0, "virtual-time metrics sampling interval (e.g. 100us; 0 = off)")
		sampleCSV    = fs.String("sample-csv", "", "append every run's sampler time-series to this file (needs -sample-every)")
		metricsAddr  = fs.String("metrics-addr", "", "serve live sweep metrics over HTTP on this address")
		metricsAfter = fs.Duration("metrics-linger", 0, "keep serving -metrics-addr this long after the run (for scrapers)")

		faultSpec = fs.String("faults", "", "apply a deterministic fault plan to every matrix run: drop=P,dup=P,jitter=DUR,partition=A-B@FROM:TO,seed=N,start=K")
		faultSeed = fs.String("fault-seed", "", "fault plan PRNG seed(s), comma-separated; two or more expand the matrix into a per-seed fault grid (tables render the first seed)")
		straggler = fs.String("straggler", "", "straggler node(s): NODExFACTOR[@FROM:TO], comma-separated")

		fork       = fs.Bool("fork", false, "share warmup prefixes across the per-seed fault grid (needs -fault-seed with >= 2 seeds and a gated plan); output stays byte-identical")
		forkWarmup = fs.Int("fork-warmup", 0, "gate the fault plan(s) on barrier K (adds start=K)")
	)
	return fs, func() error {
		defer profiling.Start(*cpuProf, *memProf)()

		if *list {
			for _, e := range harness.Experiments() {
				fmt.Fprintf(stdout, "%-10s %s\n", e.Name, e.Desc)
			}
			return nil
		}

		opts := harness.Options{
			Size:     apps.Small,
			Nodes:    *nodes,
			Verify:   *verify,
			Out:      stdout,
			Parallel: *parallel,
		}
		if *size == "paper" {
			opts.Size = apps.Paper
		}
		opts.Protocols = protocolList(*protocol)
		if *progress {
			opts.Progress = stderr
		}
		opts.Histograms = *latency
		if *csvPath != "" {
			// Append, as documented: records from successive invocations
			// accumulate. The CSV sink writes the header exactly once and
			// suppresses it by itself when the file already holds records.
			f, err := os.OpenFile(*csvPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			opts.CSV = f
		}
		seeds := seedList(*faultSeed)
		if len(seeds) > 1 {
			// Two or more seeds expand the matrix into a fault grid: one run
			// per seed of the same plan, forkable across the shared warmup.
			if *faultSpec == "" {
				fatal(fmt.Errorf("-fault-seed with multiple seeds needs -faults"))
			}
			for _, seed := range seeds {
				plan := buildPlan(*faultSpec, *straggler, seed, *forkWarmup)
				opts.FaultGrid = append(opts.FaultGrid,
					sweep.FaultVariant{Name: fmt.Sprintf("s%d", seed), Plan: plan})
			}
		} else if *faultSpec != "" || len(seeds) == 1 || *straggler != "" {
			var seed uint64
			if len(seeds) == 1 {
				seed = seeds[0]
			}
			opts.Faults = buildPlan(*faultSpec, *straggler, seed, *forkWarmup)
		}
		if *fork {
			if len(opts.FaultGrid) < 2 {
				fatal(fmt.Errorf("-fork needs -fault-seed with at least two seeds to build a fault grid"))
			}
			if opts.FaultGrid[0].Plan.StartBarrier() <= 0 {
				fatal(fmt.Errorf("-fork needs a gated plan: set -fork-warmup K or a start=K clause in -faults"))
			}
			opts.Fork = true
		}
		opts.SampleEvery = sim.Time(*sampleEvery)
		if *sampleCSV != "" {
			if *sampleEvery <= 0 {
				fatal(fmt.Errorf("-sample-csv needs -sample-every"))
			}
			f, err := os.OpenFile(*sampleCSV, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			opts.SampleCSV = f
		}
		opts.ShareProfile = *prof || *profCSV != ""
		if *profCSV != "" {
			f, err := os.OpenFile(*profCSV, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			opts.ProfCSV = f
		}
		opts.CritPath = *crit || *critCSV != ""
		if *critCSV != "" {
			f, err := os.OpenFile(*critCSV, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			opts.CritCSV = f
		}
		if *whatIf != "" {
			scale, err := critpath.ParseScale(*whatIf)
			if err != nil {
				fatal(err)
			}
			opts.WhatIf = scale
		}
		if *metricsAddr != "" {
			reg := metrics.NewRegistry()
			addr, stop, err := reg.Serve(*metricsAddr)
			if err != nil {
				fatal(err)
			}
			defer stop()
			fmt.Fprintf(stderr, "serving live metrics on http://%s/metrics\n", addr)
			opts.Metrics = reg
		}
		r := harness.New(opts)
		defer r.Flush()

		selected := harness.Experiments()
		if *exp != "all" {
			e, err := harness.Get(*exp)
			if err != nil {
				fatal(err)
			}
			selected = []harness.Experiment{e}
		}

		// Fan the selected experiments' runs out over the worker pool; Ctrl-C
		// cancels the in-flight simulations between virtual-time steps.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		start := time.Now()
		if err := r.Prefetch(ctx, harness.PointsFor(opts, selected)); err != nil {
			fatal(err)
		}

		for _, e := range selected {
			fmt.Fprintln(stdout)
			if err := e.Run(r); err != nil {
				fatal(fmt.Errorf("%s: %v", e.Name, err))
			}
		}
		if opts.Fork {
			printForkSummary(stdout, r.ForkStats(), time.Since(start))
		}

		// Hold the metrics endpoint open for interval-based scrapers that would
		// otherwise miss a short run entirely. Ctrl-C ends the linger early.
		if *metricsAddr != "" && *metricsAfter > 0 {
			select {
			case <-time.After(*metricsAfter):
			case <-ctx.Done():
			}
		}
		return nil
	}
}

// protocolList parses the -protocol override: "" keeps the paper matrix,
// "all" selects the registry's whole catalog, otherwise each
// comma-separated name must be registered.
func protocolList(s string) []string {
	if s == "" {
		return nil
	}
	if s == "all" {
		return core.ProtocolNames()
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		if core.ProtocolTitle(p) == "" {
			fatal(fmt.Errorf("unknown protocol %q (registered: %s)", p, strings.Join(core.ProtocolNames(), ", ")))
		}
		out = append(out, p)
	}
	return out
}

// seedList parses the comma-separated -fault-seed value.
func seedList(s string) []uint64 {
	if s == "" {
		return nil
	}
	var out []uint64
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -fault-seed %q: %v", p, err))
		}
		out = append(out, v)
	}
	return out
}

// buildPlan assembles one fault plan from the flag pieces. seed == 0 keeps
// the plan's own seed; warmup > 0 gates the plan on barrier K.
func buildPlan(spec, straggler string, seed uint64, warmup int) *faults.Plan {
	plan, err := faults.Parse(spec)
	if err != nil {
		fatal(err)
	}
	if straggler != "" {
		rules, err := faults.ParseStragglers(straggler)
		if err != nil {
			fatal(err)
		}
		plan.Add(rules...)
	}
	if seed != 0 {
		plan.Add(faults.Seed(seed))
	}
	if warmup > 0 {
		plan.Add(faults.StartAtBarrier(warmup))
	}
	return plan
}

// printForkSummary reports what prefix sharing bought the run: estimated
// flat wall time is the measured one plus the warmup re-simulation the
// forks avoided.
func printForkSummary(w io.Writer, fs sweep.ForkStats, wall time.Duration) {
	if fs.ForkedRuns == 0 {
		fmt.Fprintf(w, "\nfork: no runs forked (grid not forkable: ungated plans, non-barrier apps, or <2 forkable variants)\n")
		return
	}
	flat := wall + fs.SavedWall
	fmt.Fprintf(w, "\nfork: %d warmup prefixes served %d forked runs; wall %v vs ~%v flat (est. %.2fx speedup)\n",
		fs.Prefixes, fs.ForkedRuns, wall.Round(time.Millisecond), flat.Round(time.Millisecond),
		float64(flat)/float64(wall))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmbench:", err)
	os.Exit(1)
}
