package dsmsim

import (
	"io"

	"dsmsim/internal/sweep"
)

// FaultVariant names one fault plan of a WithFaultGrid grid. A nil Plan is
// the healthy-machine member of the grid.
type FaultVariant = sweep.FaultVariant

// Option customizes a Start or Sweep call by writing one setting into the
// sweep engine's options struct — the single declaration of every run
// setting, whose Config field is the core.Config a run is built from.
// Start and Sweep share the vocabulary: the settings that describe a run
// (verification, fault plan, virtual-time limit, sampling, profilers)
// mean the same thing in both. An option marked "Sweep only" is an error
// from Start, and the trace writers trace one run: a Sweep given them
// traces its one point (never a baseline) and fails over more than one.
type Option func(*sweep.Options)

// WithVerify enables result verification against the sequential
// reference. WithVerify() (no argument) turns verification on;
// WithVerify(false) spells out the default: Start runs unverified and
// Sweep verifies at Small size only (verification is slow at Paper size).
func WithVerify(v ...bool) Option {
	on := len(v) == 0 || v[0]
	return func(o *sweep.Options) { o.Verify = on }
}

// WithFaults applies a deterministic fault plan — seeded link drops,
// duplicates, delay jitter, timed partitions, straggler windows — to the
// run (Start) or to every non-sequential run of the sweep. Build plans
// with NewFaultPlan and the rule constructors (Drop, Partition,
// Straggler, …) or from a flag string with ParseFaults. A nil or inactive
// plan leaves the machine byte-identical to the fault-free one; the same
// plan (same FaultSeed) reproduces a run bit-for-bit.
func WithFaults(p *FaultPlan) Option { return func(o *sweep.Options) { o.Config.Faults = p } }

// WithFaultGrid expands every matrix point of the sweep into one run per
// named fault variant (fault-sensitivity studies: the same configuration
// under "none", "lossy", "jittery", ... plans). Variant names must be
// unique and non-empty; a nil plan is the healthy-machine member. With a
// grid attached, the CSV schema gains a trailing fault column, progress
// lines a f=<name> tag, and WithFaults is ignored for grid points. Sweep
// only.
func WithFaultGrid(variants ...FaultVariant) Option {
	return func(o *sweep.Options) { o.FaultGrid = variants }
}

// WithFork shares warmup prefixes across WithFaultGrid points: each group
// of runs differing only in the fault variant executes its pre-fault
// prefix once — to a checkpoint at the grid's earliest start barrier
// (plans gated with start=K are dormant before their K-th barrier) — and
// forks the checkpoint per variant. All output stays byte-identical to
// flat execution at any parallelism. Points of an ungated plan, or of a
// sweep with the sharing profiler attached, run flat; points whose cut the
// checkpoint machinery refuses (inside a phase, a release in flight, the
// run over first) re-run flat; both are counted in SweepResult.Fork, and
// any other fork error fails the sweep.
// Sweep only; requires WithFaultGrid with at least two forkable variants to
// have any effect.
func WithFork() Option { return func(o *sweep.Options) { o.Fork = true } }

// WithLimit bounds each run's virtual time (0 keeps the generous
// default).
func WithLimit(t Time) Option { return func(o *sweep.Options) { o.Config.Limit = t } }

// WithSampleEvery attaches the virtual-time metrics sampler,
// snapshotting per-interval deltas of the node counters. Sampling is
// strictly observational: results, progress lines and CSV records are
// unchanged. Each run's series is available as Result.Samples.
func WithSampleEvery(every Time) Option {
	return func(o *sweep.Options) { o.Config.SampleEvery = every }
}

// WithShareProfile attaches the sharing-pattern profiler to the run
// (Start) or to every non-sequential run of the sweep: each touched block
// is classified into the paper's sharing taxonomy (private, read-only,
// producer-consumer, migratory, write-shared) and every fault and
// invalidation attributed as cold, true sharing, false sharing or
// upgrade, aggregated over the application's named heap regions into
// Result.Sharing. Profiling is strictly observational: virtual time and
// every other Result field are byte-identical to an unprofiled run.
func WithShareProfile() Option { return func(o *sweep.Options) { o.Config.ShareProfile = true } }

// WithCritPath attaches the critical-path profiler to the run (Start) or
// to every non-sequential run of the sweep: the exact longest dependency
// chain of the execution is recovered — its segments sum to the run's
// completion time to the nanosecond — and attributed per component
// (compute, straggler dilation, runtime overhead, message wire, message
// service, lock wait, barrier wait, home forwarding, retransmission), per
// node and per heap region, into Result.CritPath. Profiling is strictly
// observational: virtual time and every other Result field are
// byte-identical to an unprofiled run.
func WithCritPath() Option { return func(o *sweep.Options) { o.Config.CritPath = true } }

// WithWhatIf rescales one cost class of the machine — compute, message
// wire latency, message service occupancy, lock traffic, barrier traffic
// — by the scale's factor and re-simulates exactly (COZ-style causal
// profiling, but with the true counterfactual executed rather than
// estimated). Compare the rescaled run's time against the baseline's
// CritPath.Predict to separate what the critical path predicts from what
// the full dependency structure delivers. Build scales with ParseWhatIf
// ("lock=0.5", "msg=0"). Applies to Start and to every non-sequential
// run of the sweep.
func WithWhatIf(s *CritScale) Option { return func(o *sweep.Options) { o.Config.WhatIf = s } }

// WithTrace streams the run's deterministic line-format event log to w:
// every fault, synchronization operation, message send/service — and,
// under a fault plan, every wire drop, duplicate and retransmission —
// with virtual timestamps. Traces the one run of Start, or the one point
// of a Sweep; a Sweep of more than one point fails with it. `dsmrun
// -project chrome FILE` turns the log into Chrome trace-event JSON (load
// in Perfetto or chrome://tracing).
func WithTrace(w io.Writer) Option { return func(o *sweep.Options) { o.Config.Trace = w } }

// WithParallelism bounds the sweep worker pool. n <= 0 (and the default)
// means one worker per available CPU (GOMAXPROCS); 1 recovers fully
// serial execution. Output is byte-identical at every setting. Sweep
// only.
func WithParallelism(n int) Option { return func(o *sweep.Options) { o.Workers = n } }

// WithProgress streams one line per completed run to w, in canonical
// sweep order regardless of completion order. Sweep only.
func WithProgress(w io.Writer) Option { return func(o *sweep.Options) { o.Progress = w } }

// WithCSV streams one header line, then one machine-readable row per
// completed run, to w: the run table of the sweep's records. Sweep only.
func WithCSV(w io.Writer) Option { return func(o *sweep.Options) { o.CSV = w } }

// WithHistograms adds a latency-distribution summary line (fault service
// time, message latency, lock wait) after each run's progress line. Sweep
// only.
func WithHistograms() Option { return func(o *sweep.Options) { o.Histograms = true } }

// WithRecord streams every run's record to w as one JSON line: the point
// and its whole Result — per-node statistics, histograms, phases, samples,
// sharing profile, critical path, reliability counters — with sequential
// baselines included, in canonical sweep order and byte-identical at any
// parallelism. Every CSV and progress line is a projection of it (`dsmrun
// -project`). The line's "v" field is the schema version, bumped when a
// field changes meaning. Sweep only.
func WithRecord(w io.Writer) Option { return func(o *sweep.Options) { o.Record = w } }

// WithMetrics attaches a live metrics registry: the sweep records each
// point once in m — its wall-clock runtime and result — and counts repeat
// lookups as memo hits (Prometheus text at /metrics, served with
// Metrics.Serve). Wall-clock data stays on the live surface only;
// deterministic outputs are unaffected. Sweep only.
func WithMetrics(m *Metrics) Option { return func(o *sweep.Options) { o.Metrics = m } }
