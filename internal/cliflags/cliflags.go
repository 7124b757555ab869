// Package cliflags declares the flags dsmrun and dsmbench share — once —
// and turns their parsed values into the sweep engine's options: problem
// size and parallelism, the observers, the what-if scale, the fault plan
// and grid, the append-mode CSV files and the live-metrics server. Each
// CLI registers only what is its own next to it (-verify, -protocol and
// -fault-seed differ in type or default between the two and stay local).
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dsmsim/internal/apps"
	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/profiling"
	"dsmsim/internal/sim"
	"dsmsim/internal/sweep"
)

// Shared holds the parsed values of the shared flags and the files and
// servers opened on their behalf.
type Shared struct {
	Size        string
	Nodes       int
	Parallel    int
	CSV         string
	Prof        bool
	ProfCSV     string
	Crit        bool
	CritCSV     string
	WhatIf      string
	SampleEvery time.Duration
	SampleCSV   string
	MetricsAddr string
	Faults      string
	Straggler   string
	Fork        bool
	ForkWarmup  int
	CPUProfile  string
	MemProfile  string

	closers []func() error
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Shared {
	s := &Shared{}
	fs.StringVar(&s.Size, "size", "small", "problem size: small or paper")
	fs.IntVar(&s.Nodes, "nodes", 16, "cluster size")
	fs.IntVar(&s.Parallel, "parallel", 0, "max simulation runs in flight (0 = one per CPU, 1 = serial); output is byte-identical at every setting")
	fs.StringVar(&s.CSV, "csv", "", "append one machine-readable record per run to this file")
	fs.BoolVar(&s.Prof, "prof", false, "attach the sharing-pattern profiler (per-region taxonomy and true/false-sharing attribution)")
	fs.StringVar(&s.ProfCSV, "prof-csv", "", "append every run's sharing profile as CSV to this file (implies -prof)")
	fs.BoolVar(&s.Crit, "crit", false, "attach the critical-path profiler (exact longest dependency chain, attributed per component/node/region)")
	fs.StringVar(&s.CritCSV, "crit-csv", "", "append every run's critical-path component row as CSV to this file (implies -crit)")
	fs.StringVar(&s.WhatIf, "whatif", "", "rescale one cost class (compute, msg, svc, lock, barrier) on every run, e.g. 'lock=0.5'")
	fs.DurationVar(&s.SampleEvery, "sample-every", 0, "virtual-time metrics sampling interval (e.g. 100us; 0 = off)")
	fs.StringVar(&s.SampleCSV, "sample-csv", "", "append every run's sampler time-series as CSV to this file (needs -sample-every)")
	fs.StringVar(&s.MetricsAddr, "metrics-addr", "", "serve live sweep metrics over HTTP on this address")
	fs.StringVar(&s.Faults, "faults", "", "deterministic fault plan: drop=P,dup=P,jitter=DUR,partition=A-B@FROM:TO,linkdrop=A-B:P,rto=DUR,seed=N,start=K")
	fs.StringVar(&s.Straggler, "straggler", "", "straggler node(s): NODExFACTOR[@FROM:TO], comma-separated (e.g. '3x2.5' or '0x4@10ms:20ms')")
	fs.BoolVar(&s.Fork, "fork", false, "share warmup prefixes across the fault grid: simulate each group's pre-fault prefix once and fork it per variant (output stays byte-identical)")
	fs.IntVar(&s.ForkWarmup, "fork-warmup", 0, "gate every fault plan on barrier K (adds start=K)")
	fs.StringVar(&s.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&s.MemProfile, "memprofile", "", "write an allocation profile to this file at exit")
	return s
}

// StartProfile begins the -cpuprofile/-memprofile profiles and returns the
// stop function to defer.
func (s *Shared) StartProfile() func() { return profiling.Start(s.CPUProfile, s.MemProfile) }

// Apply writes the settings that describe a run into o: size, workers,
// observers (a -x-csv file implies -x), sampling interval, what-if scale
// and fork. The fault plan and grid depend on each CLI's -fault-seed and
// come from Plan and Grid; the output files from OpenSinks.
func (s *Shared) Apply(o *sweep.Options) (err error) {
	o.Size = apps.Small
	if s.Size == "paper" {
		o.Size = apps.Paper
	}
	o.Workers = s.Parallel
	o.Fork = s.Fork
	o.Config.ShareProfile = s.Prof || s.ProfCSV != ""
	o.Config.CritPath = s.Crit || s.CritCSV != ""
	o.Config.SampleEvery = sim.Time(s.SampleEvery)
	if s.WhatIf != "" {
		o.Config.WhatIf, err = critpath.ParseScale(s.WhatIf)
	}
	return err
}

// Plan assembles the fault plan -faults, -straggler and -fork-warmup
// describe, under the given PRNG seed (0 keeps the plan's own). It is nil
// when neither flag nor seed asks for one.
func (s *Shared) Plan(seed uint64) (*faults.Plan, error) {
	if s.Faults == "" && s.Straggler == "" && seed == 0 {
		return nil, nil
	}
	return s.buildPlan(s.Faults, s.Straggler, seed)
}

// buildPlan is the one fault-plan builder: clauses, then straggler
// windows, then the seed override, then the -fork-warmup gate.
func (s *Shared) buildPlan(spec, straggler string, seed uint64) (*faults.Plan, error) {
	plan, err := faults.Parse(spec)
	if err != nil {
		return nil, err
	}
	if straggler != "" {
		rules, err := faults.ParseStragglers(straggler)
		if err != nil {
			return nil, err
		}
		plan.Add(rules...)
	}
	if seed != 0 {
		plan.Add(faults.Seed(seed))
	}
	if s.ForkWarmup > 0 {
		plan.Add(faults.StartAtBarrier(s.ForkWarmup))
	}
	return plan, nil
}

// Grid parses dsmrun's -fault-grid syntax: semicolon-separated NAME[:SPEC]
// variants, SPEC in the -faults clause language; a variant without a SPEC
// is the healthy machine. -fork-warmup gates every variant that has one.
func (s *Shared) Grid(spec string) ([]sweep.FaultVariant, error) {
	var grid []sweep.FaultVariant
	for _, part := range strings.Split(spec, ";") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		name, clauses, _ := strings.Cut(part, ":")
		v := sweep.FaultVariant{Name: strings.TrimSpace(name)}
		if clauses != "" {
			var err error
			if v.Plan, err = s.buildPlan(clauses, "", 0); err != nil {
				return nil, fmt.Errorf("-fault-grid variant %q: %w", v.Name, err)
			}
		}
		grid = append(grid, v)
	}
	return grid, nil
}

// OpenSinks opens the -csv, -prof-csv, -crit-csv and -sample-csv files
// for appending as o's writers and starts the -metrics-addr server as o's
// registry, announcing its address on stderr. Close releases them all.
func (s *Shared) OpenSinks(o *sweep.Options, stderr io.Writer) error {
	for _, f := range []struct {
		path string
		w    *io.Writer
	}{{s.CSV, &o.CSV}, {s.ProfCSV, &o.ProfCSV}, {s.CritCSV, &o.CritCSV}, {s.SampleCSV, &o.SampleCSV}} {
		var err error
		if *f.w, err = s.Append(f.path); err != nil {
			return err
		}
	}
	if s.MetricsAddr != "" {
		reg := sweep.NewRegistry()
		addr, stop, err := reg.Serve(s.MetricsAddr)
		if err != nil {
			return err
		}
		s.closers = append(s.closers, func() error { stop(); return nil })
		fmt.Fprintf(stderr, "serving live metrics on http://%s/metrics\n", addr)
		o.Metrics = reg
	}
	return nil
}

// Append opens path for appending, so records from successive invocations
// accumulate; the CSV sink writes its header only into an empty file. The
// file stays open until Close. An empty path (a flag left unset) opens
// nothing and returns a nil writer.
func (s *Shared) Append(path string) (io.Writer, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, f.Close)
	return f, nil
}

// Close closes every file Append opened and stops the metrics server,
// returning what the closes reported.
func (s *Shared) Close() error {
	var errs []error
	for _, c := range s.closers {
		errs = append(errs, c())
	}
	s.closers = nil
	return errors.Join(errs...)
}

// PrintForkSummary reports what prefix sharing bought a sweep — estimated
// flat wall time is the measured one plus the warmup re-simulation the
// forks avoided — and how many grid points it did not serve.
func PrintForkSummary(w io.Writer, fs sweep.ForkStats, wall time.Duration) {
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
