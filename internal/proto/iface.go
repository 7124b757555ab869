package proto

import (
	"dsmsim/internal/critpath"
	"dsmsim/internal/mem"
	"dsmsim/internal/network"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
	"dsmsim/internal/timing"
	"dsmsim/internal/trace"
)

// Message kinds below SyncKindBase belong to the synchronization layer
// (internal/synch); protocol implementations number their kinds from
// ProtoKindBase up. The core dispatches on this split.
const (
	SyncKindBase  = 0
	ProtoKindBase = 100
)

// Env is the shared environment a protocol operates in. The core runtime
// constructs it and fills every field before the first fault.
type Env struct {
	Engine *sim.Engine
	Model  *timing.Model
	Net    *network.Network
	Homes  *Homes

	// Per-node state, indexed by node id.
	Spaces []*mem.Space
	Stats  []*stats.Node
	Procs  []*sim.Proc

	// Log is the global interval-publication log and VCs the per-node
	// vector clocks (unused by SC).
	Log *Log
	VCs []Clock

	// Master is the authoritative pre-parallel image of the shared heap,
	// used to seed the static homes at the parallel-phase boundary, and
	// MasterPages marks the pages of it that Setup touched: every other
	// page is still zero, like the spaces it would be copied into.
	Master      []byte
	MasterPages mem.PageMap

	// Tracer is the structured event tracer, nil when tracing is off.
	// Protocols guard every emit (and its argument construction) behind
	// a nil check so disabled tracing costs one branch.
	Tracer *trace.Tracer

	// Prof is the sharing-pattern profiler's protocol-path observer, nil
	// when profiling is off. It hears the events only the protocol path
	// can see — full-block installs (Install) and diff applications —
	// behind a nil check, like Tracer; the core feeds the
	// access/fault/tag side.
	Prof SharingObserver

	// Crit is the critical-path tracker, nil when the profiler is off.
	// The one event only the protocol path can see — a request
	// re-forwarded by a stale home or non-owner — is marked by Forward,
	// immediately before the forwarding Send.
	Crit *critpath.Tracker
}

// SharingObserver is implemented by the sharing-pattern profiler
// (internal/shareprof); defined here so protocols depend only on the
// interface. All methods run in engine context and must be pure
// bookkeeping.
type SharingObserver interface {
	// Filled reports that a complete, current copy of block was
	// installed at node (data grants, write-backs, migrations).
	Filled(node, block int)
	// DiffApplied reports that d was applied to node's copy of block
	// (HLRC's home update): exactly the diffed bytes become current.
	DiffApplied(node, block int, d mem.Diff)
}

// Nodes returns the node count.
func (e *Env) Nodes() int { return len(e.Spaces) }

// Send transmits a protocol message from node src.
func (e *Env) Send(src int, m *network.Msg) {
	m.Src = src
	e.Net.Endpoint(src).Send(m)
}

// SeedHomes copies the master image into each block's static home. Every
// tag — including the static home's own — starts NoAccess, so the first
// touch anywhere (even at the static home) faults and performs the
// first-touch home claim. Called at the parallel-phase boundary, after
// Homes.BeginFirstTouch.
func (e *Env) SeedHomes() {
	// Spaces come out of NewSpace zeroed with every tag NoAccess (fresh or
	// recycled), and SeedHomes runs before any protocol activity, so only
	// the home copies' data needs seeding — and of that only the pages
	// Setup touched, the rest of the master being zero as well.
	bs := e.Spaces[0].BlockSize()
	for b := range e.MasterPages.Blocks(bs, len(e.Master)) {
		s := e.Homes.Static(b)
		copy(e.Spaces[s].BlockData(b), e.Master[b*bs:(b+1)*bs])
	}
}

// Protocol is a coherence protocol. Fault and the synchronization hooks run
// in the faulting node's proc context and may block; ServiceCost and Handle
// run in engine context when a message is serviced.
type Protocol interface {
	// Name returns the protocol's short name ("sc", "swlrc", "hlrc").
	Name() string

	// Fault resolves an access violation by node on block. It runs in the
	// node's proc context after fault-delivery cost has been charged, and
	// returns only when the access is permitted by the local tag.
	Fault(node, block int, write bool)

	// ServiceCost returns the processor occupancy of servicing m, charged
	// before Handle runs.
	ServiceCost(m *network.Msg) sim.Time

	// Handle services a protocol message.
	Handle(m *network.Msg)

	// PreRelease runs in proc context immediately before node releases a
	// lock or enters a barrier. HLRC flushes diffs here. It returns the
	// notices describing the blocks node wrote this interval; the caller
	// publishes them as one interval (nil under SC).
	PreRelease(node int) []WriteNotice

	// ApplyNotices processes incoming write notices at an acquire or
	// barrier release: it invalidates the node's stale copies. It runs in
	// engine context while the node is blocked in the runtime; the caller
	// charges the per-notice cost through the message service cost. It must
	// not keep ivs past its return (copying an Interval out is fine): a
	// barrier's slice is rebuilt in place at the next episode.
	ApplyNotices(node int, ivs []Interval)

	// OnAcquireComplete runs in engine context whenever node completes an
	// acquire (a lock grant or a barrier release), for protocols with
	// acquire-time work outside the write-notice mechanism — the delayed
	// consistency variant applies its buffered invalidations here.
	OnAcquireComplete(node int)

	// Finalize runs after the parallel phase in engine context; it must
	// make every block's authoritative content available via Collect
	// (e.g. HLRC flushes outstanding diffs home instantly — the run is
	// over, so no cost is modeled).
	Finalize()

	// Collect returns block b's authoritative bytes after Finalize.
	Collect(b int) []byte

	Checkpointer
	MemReporter
}

// TimestampCarrier is implemented by protocols whose consistency rides on
// scalar per-node logical timestamps instead of vector clocks (the tlc
// lease protocol). The synchronization layer piggybacks ReleaseTS's value
// on lock releases and barrier arrivals — one extra int64 on the wire —
// and delivers the release-side timestamp through AcquireTS when the
// grant (or barrier release, carrying the arrival maximum) reaches the
// acquiring node. Protocols that don't implement it cost the layer
// nothing: every hook sits behind a nil check.
type TimestampCarrier interface {
	// ReleaseTS returns node's current logical timestamp; called in proc
	// context when node releases a lock or arrives at a barrier.
	ReleaseTS(node int) int64
	// AcquireTS advances node's logical timestamp to at least ts and
	// performs the protocol's acquire-time work (tlc sweeps its expired
	// leases). Engine context, while node is blocked in the runtime.
	AcquireTS(node int, ts int64)
}

// Checkpointer is the part of Protocol that captures the protocol's
// complete mutable state at a quiescent cut (every proc blocked in a
// barrier, no message in flight) and restores it onto a freshly
// constructed instance of the same protocol under an identically shaped
// Env. Every protocol must provide it: forked sweeps depend on it, and a
// protocol without it would silently run flat. CaptureState fails
// if the protocol is mid-transaction — an in-flight fault, a pending
// install — since such state references live messages no fork could
// share; the sweep planner then falls back to flat execution.
//
// The returned snapshot is opaque to callers, deep (no mutable aliasing
// with the live protocol) and reusable: RestoreState may be applied to
// any number of forks.
type Checkpointer interface {
	CaptureState() (any, error)
	RestoreState(state any) error
}

// MemReporter is the part of Protocol that reports the protocol's memory
// footprint: the fixed per-block/per-node metadata and the peak dynamic
// allocation (twins under HLRC). The paper's §7 lists memory utilization
// as unexamined future work; the harness's "memory" experiment covers it.
type MemReporter interface {
	// MemFootprint returns (staticBytes, peakDynamicBytes).
	MemFootprint() (int64, int64)
}
