// Command bench is the repository's benchmark: seven workloads of
// simulator runs timed end to end, a traced pass and a set of layer
// probes that say where the time goes. README.md in this directory has
// the tables; BENCHMARK.json at the repository root is the contract.
//
//	go run ./bench                                  # everything, ~3 minutes
//	go run ./bench -workload fine64,locks -out A    # two workloads, results in A/
//	go run ./bench -compare A/result.json B/result.json
//	go run ./bench -record                          # rewrite bench/expected.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Trace modes of one invocation (-trace).
const (
	traceOff  = 0 // end-to-end metrics only: timed iterations, tracing off
	traceOnly = 1 // per-layer metrics only: a short untraced pass, the traced pass, the probes
	traceBoth = 2 // both (the default)
)

// env stamps a result with what it was measured on.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// report is the result file of one invocation.
type report struct {
	Env           env              `json:"env"`
	Seed          uint64           `json:"seed"`
	Workloads     []workloadReport `json:"workloads"`
	ProbeFailures []string         `json:"probe_failures,omitempty"`
}

// workloadReport is one workload's part of a report.
type workloadReport struct {
	Name      string           `json:"name"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailRatio float64          `json:"fail_ratio"`
	Failures  []string         `json:"failures,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

// resultLine is the last line a workload prints: the driver's contract.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"` // without samples
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all)")
	seed := fs.Uint64("seed", expectedSeed, "input seed: lossy's fault seed and the base of sweepgrid's variant seeds")
	seconds := fs.Float64("seconds", 0, "measure each workload for this long instead of its constant iteration count")
	trace := fs.Int("trace", traceBoth, "0: end-to-end metrics only, 1: per-layer metrics only, 2: both")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for result.json and spans.json")
	doRecord := fs.Bool("record", false, "rewrite bench/expected.json from this commit and exit")
	compare := fs.String("compare", "", "compare `A.json` with the B.json given as argument and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			return fail(fmt.Errorf("usage: -compare A.json B.json"))
		}
		differs, err := compareFiles(stdout, *compare, fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		if differs {
			return 1
		}
		return 0
	}
	if *trace < traceOff || *trace > traceBoth {
		return fail(fmt.Errorf("-trace %d: want 0, 1 or 2", *trace))
	}
	runtime.GOMAXPROCS(workers())
	ctx := context.Background()
	if *doRecord {
		if err := record(ctx); err != nil {
			return fail(err)
		}
		return 0
	}

	var selected []workload
	if *names == "" {
		selected = workloads()
	} else {
		for _, name := range strings.Split(*names, ",") {
			w, ok := findWorkload(name)
			if !ok {
				return fail(fmt.Errorf("unknown workload %q", name))
			}
			selected = append(selected, w)
		}
	}

	rep, rec, err := runAll(ctx, selected, *seed, time.Duration(*seconds*float64(time.Second)), *trace)
	if err != nil {
		return fail(err)
	}
	if err := writeOut(*out, rep, rec); err != nil {
		return fail(err)
	}
	ok := printReport(stdout, rep, *trace)
	if !ok {
		return 1
	}
	return 0
}

// runAll measures the selected workloads one after another, then runs
// the layer probes once (after the timing, so they cannot warm or grow
// the heap the timing sees) and folds their costs into each workload's
// share estimates.
func runAll(ctx context.Context, selected []workload, seed uint64, budget time.Duration, mode int) (*report, *recorder, error) {
	rep := &report{Env: stamp(), Seed: seed}
	var rec *recorder
	if mode != traceOff {
		rec = newRecorder()
	}
	var ms []*measurement
	for _, w := range selected {
		o := measureOpts{Seed: seed, Budget: budget, Iters: w.Iters, Setups: w.Setups}
		if mode != traceOff {
			o.Traced = w.Traced
		}
		if mode == traceOnly {
			// The untraced pass is here only as the traced pass's base.
			o.Budget = budget / 2
		}
		m, err := measure(ctx, w, o, rec)
		if err != nil {
			return nil, nil, err
		}
		ms = append(ms, m)
	}
	var probes *probeSet
	if mode != traceOff {
		probes = runProbes(ctx, seed, probeReps)
		rep.ProbeFailures = probes.failures
	}
	for _, m := range ms {
		wr := workloadReport{Name: m.w.Name, Attempted: m.attempted, Failed: m.failed, Failures: m.failures}
		if m.attempted > 0 {
			wr.FailRatio = float64(m.failed) / float64(m.attempted)
		}
		if mode != traceOnly {
			wr.EndToEnd = m.endToEnd()
		}
		if mode != traceOff {
			layer := m.workloadLayer(probes)
			wr.PerLayer = map[string]value{}
			for _, def := range perLayer() {
				v, ok := probes.vals[def.Name]
				if !ok {
					v = layer[def.Name]
				}
				wr.PerLayer[def.Name] = value{Value: v, Unit: def.Unit}
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, rec, nil
}

// stamp describes the build and the host.
func stamp() env {
	e := env{Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			e.Commit += "-dirty"
		}
	}
	return e
}

// writeOut writes the result file and, when there was a traced pass, the
// span file into dir.
func writeOut(dir string, rep *report, rec *recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if rec == nil {
		return nil
	}
	return rec.writeFile(filepath.Join(dir, "spans.json"))
}

// printReport prints every metric by name with its unit and, as each
// workload's last line, its result object. It reports whether every run
// and every probe self-check passed.
func printReport(w io.Writer, rep *report, mode int) bool {
	fmt.Fprintf(w, "commit %s  %s  GOMAXPROCS=%d  NumCPU=%d  seed=%d\n",
		rep.Env.Commit, rep.Env.GoVersion, rep.Env.GOMAXPROCS, rep.Env.NumCPU, rep.Seed)
	for _, f := range rep.ProbeFailures {
		fmt.Fprintln(w, "PROBE FAILED:", f)
	}
	ok := len(rep.ProbeFailures) == 0
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s: %d runs attempted, %d failed, fail_ratio %g\n", wr.Name, wr.Attempted, wr.Failed, wr.FailRatio)
		for _, f := range wr.Failures {
			fmt.Fprintln(w, "RUN FAILED:", f)
		}
		line := resultLine{Correct: wr.Failed == 0 && len(rep.ProbeFailures) == 0,
			Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]value{}}
		ok = ok && line.Correct
		if mode != traceOnly {
			for _, def := range endToEnd {
				v := wr.EndToEnd[def.Name]
				fmt.Fprintf(w, "%-32s %16.6g %-7s (%s is better, bound %g%%)\n", def.Name, v.Value, v.Unit, def.Better, 100*def.Bound)
				line.Metrics[def.Name] = value{Value: v.Value, Unit: v.Unit}
			}
		}
		if mode != traceOff {
			for _, def := range perLayer() {
				v := wr.PerLayer[def.Name]
				fmt.Fprintf(w, "%-32s %16.6g %s\n", def.Name, v.Value, v.Unit)
				line.Metrics[def.Name] = value{Value: v.Value, Unit: v.Unit}
			}
		}
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(w, "bench:", err)
			return false
		}
		fmt.Fprintf(w, "%s\n", data)
	}
	return ok
}
