// Package dsmsim is a software distributed-shared-memory laboratory: a
// deterministic simulation of a 16-node workstation cluster with
// fine-grained access control, reproducing the system evaluated in
// "Relaxed Consistency and Coherence Granularity in DSM Systems: A
// Performance Evaluation" (Zhou, Iftode, Singh, Li, Toonen, Schoinas,
// Hill, Wood — PPoPP 1997).
//
// The library provides the paper's three coherence protocols —
// sequential consistency (SC, a Stache-style directory protocol),
// single-writer lazy release consistency (SW-LRC), and home-based lazy
// release consistency (HLRC, multiple writer with twins and diffs) —
// plus two registered extensions, delayed consistency (DC) and
// Tardis-style timestamp lease coherence (TLC), at any power-of-two
// coherence granularity, over a Myrinet-calibrated network model with
// polling- or interrupt-based message notification.
//
// Applications program against Ctx: typed reads and writes of a shared
// address space (access-checked per coherence block), explicit computation
// time, locks, and barriers. The twelve applications of the paper live in
// internal/apps and are runnable through Start/StartApp; new workloads
// implement the App interface.
//
//	cfg := dsmsim.Config{Nodes: 16, BlockSize: 4096, Protocol: dsmsim.HLRC}
//	res, err := dsmsim.StartApp(ctx, cfg, "lu", dsmsim.Paper, dsmsim.WithVerify())
//
// Runs can degrade the machine deterministically: a FaultPlan injects
// seeded link loss, duplication, delay jitter, timed partitions and
// straggler nodes, carried by the network's ack/retransmission layer so
// every run still completes and verifies (see NewFaultPlan, WithFaults).
//
// The paper's whole evaluation is a cross-product of configurations; Sweep
// runs any slice of it over a host-level worker pool with deterministic,
// byte-identical output at any parallelism (see SweepSpec and the
// functional options), and Machine.RunContext gives individual runs
// host-side cancellation.
//
// All timing is virtual and deterministic: identical configurations
// produce bit-identical results.
package dsmsim

import (
	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/metrics"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/shareprof"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
	"dsmsim/internal/sweep"
)

// Re-exported core types: see the core package for full documentation.
type (
	// Config selects one point of the evaluation space.
	Config = core.Config
	// Machine is a configured simulated cluster.
	Machine = core.Machine
	// Result is the outcome of one run: execution time, per-node
	// statistics, traffic, and the final shared image.
	Result = core.Result
	// Ctx is the per-node programming interface applications run against.
	Ctx = core.Ctx
	// Heap is the master image applications lay out during Setup.
	Heap = core.Heap
	// App is a workload: Setup, Run (per node), Verify.
	App = core.App
	// AppInfo describes an App to the runtime.
	AppInfo = core.AppInfo
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Notify selects the message-notification mechanism.
	Notify = network.Notify
	// SizeClass selects a problem scale (Small or Paper).
	SizeClass = apps.SizeClass
	// NodeStats holds one node's counters and stall times; Result.PerNode
	// and Result.Total use it, so it is re-exported here — callers no
	// longer need to import internal/stats to name their results' fields.
	NodeStats = stats.Node
	// Histogram is the log-scale latency distribution (p50/p90/p99 and
	// Summary) used by Result.MsgLatency and the per-node fault, lock and
	// barrier wait distributions.
	Histogram = stats.Histogram
	// Phase is one barrier-to-barrier segment of a run's phase-resolved
	// cost breakdown (Result.Phases).
	Phase = metrics.Phase
	// Sample is one interval of the virtual-time metrics sampler's series.
	Sample = metrics.Sample
	// Series is a run's sampler time-series (Result.Samples), exported as
	// CSV (WithSampleCSV) and whole in the run record (WithRecord).
	Series = metrics.Series
	// Metrics is the live sweep registry: attach one with WithMetrics and
	// serve it with Metrics.Serve, which exposes one endpoint, Prometheus
	// text at /metrics. Each point is counted once, however many times a
	// sweep looks it up; repeat lookups count as memo hits.
	Metrics = sweep.Registry
	// SharingReport is the sharing-pattern profiler's per-run report
	// (Result.Sharing under WithShareProfile): per-region taxonomy
	// classification and true/false-sharing fault attribution,
	// renderable as text (WriteText) or CSV (WriteCSV).
	SharingReport = shareprof.Report
	// SharingRegion is one named heap region's row of a SharingReport.
	SharingRegion = shareprof.RegionStats
	// SharingClass is a block's sharing-taxonomy classification
	// (private, read-only, producer-consumer, migratory, write-shared).
	SharingClass = shareprof.Class
	// CritReport is the critical-path profiler's per-run report
	// (Result.CritPath under WithCritPath): the exact longest dependency
	// chain's component composition, top nodes and top heap regions, and
	// the what-if speedup predictor (Predict), renderable as text
	// (WriteText) or CSV (WriteCSV).
	CritReport = critpath.Report
	// CritComponent labels one class of critical-path time (compute,
	// msg-wire, lock-wait, …); CritReport.Components indexes by it.
	CritComponent = critpath.Component
	// CritScale is a what-if rescaling of one machine cost class, applied
	// with WithWhatIf and predicted from a baseline with
	// CritReport.Predict. Build from a spec string with ParseWhatIf.
	CritScale = critpath.Scale
)

// ParseWhatIf parses a what-if spec "class=factor" — e.g. "lock=0.5"
// (halve lock-protocol costs), "msg=0" (free wire transit) — where class
// is one of compute, msg, svc, lock, barrier and factor is in [0, 100].
func ParseWhatIf(spec string) (*CritScale, error) { return critpath.ParseScale(spec) }

// NewMetrics creates a live metrics registry for WithMetrics.
func NewMetrics() *Metrics { return sweep.NewRegistry() }

// Protocol names. DC (delayed consistency) and TLC (timestamp lease
// coherence) are this library's extensions beyond the paper's three
// protocols: DC is SC's directory protocol with receiver-buffered
// invalidations applied at synchronization points (the §7 future-work
// direction); TLC is a Tardis-style lease protocol where readers take
// logical-time leases instead of joining copysets and writers never send
// an invalidation. The authoritative catalog is the protocol registry —
// see AllProtocols and ProtocolTitle.
const (
	SC    = core.SC
	SWLRC = core.SWLRC
	HLRC  = core.HLRC
	DC    = core.DC
	TLC   = core.TLC
)

// Notification mechanisms (§5.4 of the paper).
const (
	Polling   = network.Polling
	Interrupt = network.Interrupt
)

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Problem-size classes for the bundled applications.
const (
	// Small sizes run in milliseconds (tests, examples).
	Small = apps.Small
	// Paper sizes match Table 1 of the paper.
	Paper = apps.Paper
)

// Protocols lists the paper's three protocol names in the paper's order;
// extensions (DC, TLC) are selectable but excluded so reproduction
// sweeps stay faithful to the paper's matrix.
var Protocols = proto.PaperNames()

// AllProtocols returns every registered protocol name in registry order
// — the catalog behind the CLIs' "all" selector.
func AllProtocols() []string { return proto.Names() }

// ProtocolTitle returns a protocol's registered one-line description, or
// "" for an unknown name.
func ProtocolTitle(name string) string {
	if reg, ok := proto.Lookup(name); ok {
		return reg.Meta.Title
	}
	return ""
}

// Granularities lists the paper's coherence block sizes.
var Granularities = core.Granularities

// NewMachine validates cfg and returns a reusable machine.
func NewMachine(cfg Config) (*Machine, error) { return core.NewMachine(cfg) }

// AppNames returns the names of the twelve bundled applications.
func AppNames() []string { return apps.Names() }

// NewApp instantiates a bundled application by name at the given size.
func NewApp(name string, size apps.SizeClass) (App, error) {
	e, err := apps.Get(name)
	if err != nil {
		return nil, err
	}
	return e.New(size), nil
}
