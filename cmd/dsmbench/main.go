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
// -parallel setting, including fully serial -parallel=1. Under -fault-grid
// every matrix point runs once per variant and the tables render the first
// variant's runs:
//
//	dsmbench -exp fig1 -fault-grid 's1:drop=0.02,seed=1,start=6;s2:drop=0.02,seed=2,start=6' -fork
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"dsmsim/internal/cliflags"
	"dsmsim/internal/harness"
	"dsmsim/internal/proto"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
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

// cli holds dsmbench's own flags next to the ones it shares with dsmrun.
type cli struct {
	shared         *cliflags.Shared
	exp            string
	protocol       string
	verify         bool
	progress       bool
	latency        bool
	list           bool
	metricsLinger  time.Duration
	stdout, stderr io.Writer
}

// newCommand registers the flags on a fresh FlagSet and returns it with
// the command body to call after parsing.
func newCommand(stdout, stderr io.Writer) (*flag.FlagSet, func() error) {
	fs := flag.NewFlagSet("dsmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &cli{shared: cliflags.Register(fs), stdout: stdout, stderr: stderr}
	fs.StringVar(&c.exp, "exp", "all", "experiment name (see -list) or 'all'")
	fs.StringVar(&c.protocol, "protocol", "", "override the matrix experiments' protocol set, comma-separated or 'all' (default: the paper's "+strings.Join(proto.PaperNames(), ", ")+"; registered: "+strings.Join(proto.Names(), ", ")+")")
	fs.BoolVar(&c.verify, "verify", false, "verify every run's numeric result (slow at paper size)")
	fs.BoolVar(&c.progress, "progress", true, "print one line per completed run to stderr")
	fs.BoolVar(&c.latency, "latency", false, "print latency-distribution summaries with progress lines")
	fs.BoolVar(&c.list, "list", false, "list experiments and exit")
	fs.DurationVar(&c.metricsLinger, "metrics-linger", 0, "keep serving -metrics-addr this long after the run (for scrapers)")
	return fs, c.run
}

func (c *cli) run() (err error) {
	defer c.shared.StartProfile()()
	if c.list {
		for _, e := range harness.Experiments() {
			fmt.Fprintf(c.stdout, "%-10s %s\n", e.Name, e.Desc)
		}
		return nil
	}
	selected := harness.Experiments()
	if c.exp != "all" {
		e, err := harness.Get(c.exp)
		if err != nil {
			return err
		}
		selected = []harness.Experiment{e}
	}

	defer func() { err = errors.Join(err, c.shared.Close()) }()
	opts, err := c.options()
	if err != nil {
		return err
	}
	r, err := harness.New(opts)
	if err != nil {
		return err
	}

	// Fan the selected experiments' runs out over the worker pool; Ctrl-C
	// cancels the in-flight simulations between virtual-time steps.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	if err := r.Prefetch(ctx, harness.PointsFor(opts, selected)); err != nil {
		return err
	}
	for _, e := range selected {
		fmt.Fprintln(c.stdout)
		if err := e.Run(r); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	if opts.Fork {
		fmt.Fprintln(c.stdout)
		cliflags.PrintForkSummary(c.stdout, r.ForkStats(), time.Since(start))
	}

	// Hold the metrics endpoint open for interval-based scrapers that would
	// otherwise miss a short run entirely. Ctrl-C ends the linger early.
	if c.shared.MetricsAddr != "" && c.metricsLinger > 0 {
		select {
		case <-time.After(c.metricsLinger):
		case <-ctx.Done():
		}
	}
	return nil
}

// options turns the parsed flags into the runner's options, opening the
// CSV files (c.shared.Close releases them).
func (c *cli) options() (harness.Options, error) {
	s := c.shared
	opts := harness.Options{Nodes: s.Nodes, Out: c.stdout}
	opts.Verify, opts.Histograms = c.verify, c.latency
	if c.progress {
		opts.Progress = c.stderr
	}
	var err error
	if opts.Protocols, err = protocolList(c.protocol); err != nil {
		return opts, err
	}
	if err := s.Apply(&opts.Options); err != nil {
		return opts, err
	}
	return opts, s.OpenSinks(&opts.Options, c.stderr)
}

// protocolList parses the -protocol override: "" keeps the paper matrix,
// "all" selects the registry's whole catalog, otherwise each
// comma-separated name must be registered.
func protocolList(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		return proto.Names(), nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		if _, ok := proto.Lookup(p); !ok {
			return nil, fmt.Errorf("unknown protocol %q (registered: %s)", p, strings.Join(proto.Names(), ", "))
		}
		out = append(out, p)
	}
	return out, nil
}
