// Package core is the DSM machine: it wires the simulation engine, network,
// per-node address spaces, coherence protocol and synchronization manager
// together, runs an application's parallel phase on every simulated node,
// and gathers the results — both the final shared-memory image (for
// verification) and the statistics the paper's tables report.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/mem"
	"dsmsim/internal/metrics"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/shareprof"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
	"dsmsim/internal/synch"
	"dsmsim/internal/timing"
	"dsmsim/internal/trace"

	// Protocol packages self-register with the proto registry from init;
	// these imports are what put them in the catalog. Validate and
	// construction derive the protocol set from that registry, never from a
	// hardcoded list.
	_ "dsmsim/internal/proto/hlrc"
	_ "dsmsim/internal/proto/sc"
	_ "dsmsim/internal/proto/swlrc"
	_ "dsmsim/internal/proto/tlc"
)

// Well-known protocol names accepted by Config.Protocol; the
// authoritative catalog is the proto registry (see proto.Names).
const (
	SC    = "sc"
	SWLRC = "swlrc"
	HLRC  = "hlrc"
	// DC is delayed consistency (Dubois et al.): SC's directory protocol
	// with receiver-buffered invalidations applied at synchronization
	// points — the extension §7 of the paper names as unexamined.
	DC = "dc"
	// TLC is timestamp/lease coherence (in the spirit of Tardis 2.0):
	// readers take logical-time leases instead of joining copysets,
	// writers bump the block's write timestamp past every outstanding
	// lease, and stale copies self-expire at acquires — no invalidation
	// fan-out at all.
	TLC = "tlc"
)

// Granularities lists the paper's coherence block sizes.
var Granularities = []int{64, 256, 1024, 4096}

// MaxNodes is the largest supported cluster size. Directory metadata is
// sparse (sharded per-block tables, copysets that spill past 64 nodes),
// so the bound is a sanity limit on simulation cost, not a structural
// one.
const MaxNodes = 1024

// model is the cost model of every run: the paper's calibrated testbed
// (§3). Runs share it and only read it.
var model = timing.Default()

// nodeNames are the proc names "node0".."node1023", formatted once for
// every run instead of once per proc per run.
var nodeNames = func() []string {
	names := make([]string, MaxNodes)
	for i := range names {
		names[i] = "node" + strconv.Itoa(i)
	}
	return names
}()

// Config selects one point of the paper's evaluation space.
type Config struct {
	// Nodes is the cluster size, in [1, MaxNodes] (the paper uses 16).
	Nodes int
	// BlockSize is the coherence granularity in bytes (power of two).
	BlockSize int
	// Protocol names a registered protocol (proto.Names): SC, DC, SWLRC,
	// HLRC or TLC.
	Protocol string
	// Notify selects polling or interrupts (§5.4).
	Notify network.Notify
	// Sequential runs the one-node baseline used as the numerator of
	// speedups: all blocks pre-claimed by node 0, no polling dilation, no
	// access faults. It still sends itself every lock and barrier message
	// and pays their send and handler costs (DESIGN §5½). Validate runs it
	// at the page size unless BlockSize is set, and clears the settings a
	// baseline ignores (Faults, ShareProfile, CritPath, WhatIf).
	Sequential bool
	// StaticHomes disables first-touch home migration (§2): blocks stay
	// at their round-robin static homes. An ablation knob for the
	// design-choice benchmarks; the paper's configuration migrates.
	StaticHomes bool
	// SoftwareAccessCheck models an all-software system (§7's future
	// work): instead of the Typhoon-0 hardware's free checks, every
	// shared access pays an instrumentation cost, charged in batches at
	// the next Compute or synchronization call. Zero uses the hardware
	// model.
	SoftwareAccessCheck sim.Time
	// Limit aborts runs exceeding this much virtual time (0 = none).
	Limit sim.Time
	// Trace, when non-nil, receives a deterministic line-format event log:
	// every fault, synchronization operation, message send and message
	// service with virtual timestamps. Traces of identical runs diff empty;
	// trace.Chrome turns one into Chrome trace-event JSON. Trace is written
	// from the tracer's own goroutine, not the caller's; every write has
	// happened by the time the run returns, however it ends.
	Trace io.Writer
	// SampleEvery, when positive, attaches the virtual-time metrics
	// sampler: every SampleEvery of virtual time the run snapshots all
	// per-node stats deltas into Result.Samples. Strictly observational —
	// the sampler fires between event dispatches, never from the event
	// queue — so enabling it changes no result and no other output.
	SampleEvery sim.Time
	// ShareProfile attaches the sharing-pattern profiler: every touched
	// block is classified into the paper's sharing taxonomy and every
	// fault and invalidation attributed as cold, true sharing, false
	// sharing or upgrade, aggregated per named heap region into
	// Result.Sharing. Strictly observational — no virtual-time cost, no
	// events — so everything else in the Result is byte-identical to a
	// profiler-off run. Ignored by Sequential baselines (nothing is
	// shared).
	ShareProfile bool
	// Faults, when non-nil, injects deterministic failures: seeded link
	// drops, duplicates, delay jitter and timed partitions (carried by the
	// network's ack/retransmission layer so runs still complete and
	// verify), plus per-node compute-dilation straggler windows. A nil or
	// inactive plan is byte-identical to the fault-free machine; identical
	// plans (same seed) reproduce runs bit-for-bit. Ignored by Sequential
	// baselines.
	Faults *faults.Plan
	// CritPath attaches the critical-path profiler: every event's
	// last-finisher predecessor is recorded so the run's exact critical
	// path — whose component/node/region attribution sums to Result.Time
	// precisely — lands in Result.CritPath. Strictly observational, like
	// ShareProfile: no events, no virtual-time cost, every other output
	// byte-identical to a profiler-off run. Ignored by Sequential
	// baselines.
	CritPath bool
	// WhatIf, when non-nil, re-simulates with one cost class rescaled
	// (e.g. lock-protocol traffic halved): the causal what-if experiment
	// whose measured speedup the critical-path report predicts. Unlike
	// CritPath this changes the run — it answers "what would happen if",
	// deterministically. Ignored by Sequential baselines.
	WhatIf *critpath.Scale
}

// Typed validation errors returned (wrapped) by Config.Validate and
// NewMachine; test with errors.Is.
var (
	// ErrBadNodes reports a node count outside [1, MaxNodes].
	ErrBadNodes = errors.New("core: invalid node count (want 1..1024)")
	// ErrBadBlockSize reports a block size that is not a positive power of two.
	ErrBadBlockSize = errors.New("core: block size is not a power of two")
	// ErrNoProtocol reports a non-sequential config with no protocol named.
	ErrNoProtocol = errors.New("core: no protocol selected")
	// ErrUnknownProtocol reports a protocol name absent from the proto
	// registry; the wrapped message carries the registered-name list.
	ErrUnknownProtocol = errors.New("core: unknown protocol")
	// ErrBadFaultPlan wraps a fault-plan rule that fails validation.
	ErrBadFaultPlan = errors.New("core: invalid fault plan")
)

// Validate checks the configuration and normalizes a Sequential baseline:
// one node, 4096 B blocks and the SC protocol unless set, and neither a
// fault plan, the profilers nor a what-if scaling, which it ignores.
func (c *Config) Validate() error {
	if c.Sequential {
		c.Nodes, c.BlockSize = cmp.Or(c.Nodes, 1), cmp.Or(c.BlockSize, 4096)
		c.Faults, c.ShareProfile, c.CritPath, c.WhatIf = nil, false, false, nil
	}
	if c.Nodes <= 0 || c.Nodes > MaxNodes {
		return fmt.Errorf("%w: %d", ErrBadNodes, c.Nodes)
	}
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("%w: %d", ErrBadBlockSize, c.BlockSize)
	}
	if c.Protocol == "" {
		if !c.Sequential {
			return ErrNoProtocol
		}
		c.Protocol = SC
	}
	if _, ok := proto.Lookup(c.Protocol); !ok {
		return fmt.Errorf("%w: %q (registered: %s)",
			ErrUnknownProtocol, c.Protocol, strings.Join(proto.Names(), ", "))
	}
	if err := c.Faults.ValidateFor(c.Nodes); err != nil {
		return fmt.Errorf("%w: %w", ErrBadFaultPlan, err)
	}
	return nil
}

// AppInfo describes an application to the runtime.
type AppInfo struct {
	// Name identifies the application ("lu", "ocean-rowwise", ...).
	Name string
	// HeapBytes is the shared-heap size Setup will allocate from.
	HeapBytes int
	// PollDilation is the fractional slowdown of computation caused by
	// backedge polling instrumentation (§5.4 reports 55% for LU; most
	// applications are far lower). Applied only under polling.
	PollDilation float64
}

// App is a workload: Setup lays out and initializes the shared heap in the
// master image (the sequential pre-parallel phase, not timed), Run is the
// parallel body executed by every node, and Verify checks the final image.
// A Run written as Ctx.Phases, with only pure set-up before it, resumes from
// a checkpoint: a restored node runs it again and Phases starts at the
// checkpoint's epoch. One that reaches a Barrier or returns first is
// refused with ErrNotResumable.
type App interface {
	Info() AppInfo
	Setup(h *Heap)
	Run(c *Ctx)
	Verify(h *Heap) error
}

// Result is the outcome of one run.
type Result struct {
	App       string
	Protocol  string
	BlockSize int
	Notify    network.Notify
	Nodes     int

	// Time is the parallel-phase execution time.
	Time sim.Time
	// PerNode are the per-node statistics — the slab the run itself
	// counted into, handed over — and Total their sum.
	PerNode []stats.Node
	Total   stats.Node
	// NetMsgs and NetBytes are whole-machine traffic totals; MsgLatency
	// is the end-to-end message latency distribution (send call to
	// service start) merged across every endpoint.
	NetMsgs    int64
	NetBytes   int64
	MsgLatency stats.Histogram

	// Link-layer reliability totals, nonzero only under a wire-active
	// fault plan: data frames retransmitted after timeouts, timer
	// expirations, transmissions lost on the wire (injected drops and
	// partition cuts, frames and acks alike), duplicate frames discarded
	// by receive-side dedup, and cumulative acks generated.
	// RetransmitLatency is the first-send→ack distribution of frames that
	// needed at least one retransmission.
	Retransmits       int64
	Timeouts          int64
	WireDrops         int64
	Duplicates        int64
	AcksSent          int64
	RetransmitLatency stats.Histogram

	// BlocksWritten counts blocks written by at least one node, and
	// MultiWriterBlocks those written by more than one — the paper's
	// single- vs multiple-writer classification (Table 2).
	BlocksWritten     int
	MultiWriterBlocks int

	// ProtoStaticBytes is the protocol's fixed metadata footprint, the
	// home map included, and ProtoPeakBytes its peak dynamic allocation
	// (HLRC twins) — the memory-utilization dimension §7 leaves
	// unexamined.
	ProtoStaticBytes int64
	ProtoPeakBytes   int64

	// Phases is the barrier-epoch-resolved execution-time breakdown (the
	// paper's Figure 2 cut along virtual time): one entry per barrier
	// epoch with compute / data-wait / synchronization / overhead summed
	// across nodes. Always recorded; the accounting is pure proc-context
	// bookkeeping.
	Phases []metrics.Phase
	// Samples is the virtual-time metrics series, non-nil only when
	// Config.SampleEvery was set.
	Samples *metrics.Series
	// Sharing is the sharing-pattern profile — per-block taxonomy and
	// true/false-sharing attribution aggregated over named heap regions
	// — non-nil only when Config.ShareProfile was set.
	Sharing *shareprof.Report
	// CritPath is the run's recovered critical path — component, node
	// and region attribution summing exactly to Time — non-nil only when
	// Config.CritPath was set.
	CritPath *critpath.Report

	// Heap exposes the final shared image (gathered from the authoritative
	// copies) for verification and inspection. Nil in a sweep's results and
	// a verified run's (RunVerified, a verified dsmsim.Start): those recycle
	// the image (VerifyAndRelease). It is no part of the run's JSON record.
	Heap *Heap `json:"-"`
}

// Machine is a configured simulated cluster, reusable for multiple runs.
// A Machine holds no per-run state — every Run builds a fresh simulation —
// so concurrent Run/RunContext calls on the same Machine are safe; this is
// what lets the sweep engine fan independent runs out over host cores.
type Machine struct {
	cfg Config
}

// NewMachine validates cfg and returns a machine.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg}, nil
}

// Run executes the application's parallel phase and returns the results.
// The final shared image is written back into the master heap so that
// app.Verify can check it.
func (m *Machine) Run(app App) (*Result, error) {
	return m.RunContext(context.Background(), app)
}

// RunContext is Run with host-side cancellation: the simulation checks ctx
// between virtual-time steps (every few hundred engine events) and, once
// ctx is cancelled, stops promptly and returns ctx.Err(). A cancelled run
// leaves the Machine untouched — it holds no per-run state — so the same
// Machine can immediately start a fresh run.
func (m *Machine) RunContext(ctx context.Context, app App) (*Result, error) {
	r, err := m.buildRun(ctx, app, nil)
	if err != nil {
		return nil, err
	}
	return r.finish(r.runEngine())
}

// run is one in-flight simulation: everything RunContext wires up before
// the engine loop starts, kept together so checkpoint capture and restore
// can reach every layer of it, and so every node reads the run-wide state
// through its one pointer here. An observer that is off is nil.
type run struct {
	ctx      context.Context
	cfg      Config
	info     AppInfo
	heap     *Heap
	heapSize int
	engine   *sim.Engine
	net      *network.Network
	inj      *faults.Injector
	// straggle is inj when its plan has straggler windows, which dilate
	// Compute; wire faults never reach a node, the network's ARQ absorbs
	// them. dilation is the polling slowdown of computation (AppInfo).
	straggle *faults.Injector
	dilation float64
	tr       *trace.Tracer
	env      *proto.Env
	p        proto.Protocol
	sy       *synch.Sync
	// writers is the per-block set of nodes that write-faulted on it
	// (Table 2's writer classification).
	writers []proto.Copyset
	prof    *shareprof.Profiler
	crit    *critpath.Tracker
	// phases receives a per-node cut at every barrier return (and one
	// final cut when a body finishes), building Result.Phases.
	phases  *metrics.PhaseAccountant
	sampler *metrics.Sampler
	nodes   []Node
	// statSlab backs env.Stats; finish hands it out as Result.PerNode.
	statSlab []stats.Node

	// captureEpoch, when positive, cuts the run at that barrier epoch: the
	// barrier hook captures a checkpoint into cp (or a refusal into err)
	// and stops the engine instead of releasing the barrier. A refused
	// resume (Node.refuse) lands in err too.
	captureEpoch int
	cp           *Checkpoint
	err          error
}

// buildRun constructs the whole simulation for one run. With cp nil this is
// a fresh run from time zero; with cp non-nil every layer is restored from
// the checkpoint instead of initialized, the clock continues the original
// (time, seq) stream, and each node is reborn parked inside the barrier the
// cut suppressed — the caller replays the release with sy.ReleaseBarrier.
func (m *Machine) buildRun(ctx context.Context, app App, cp *Checkpoint) (_ *run, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &run{ctx: ctx, cfg: m.cfg, info: app.Info()}
	cfg := &r.cfg
	if cp != nil {
		if err := cp.compatible(cfg, r.info.Name); err != nil {
			return nil, err
		}
	}
	r.heapSize = roundUp(r.info.HeapBytes, max(cfg.BlockSize, 4096))
	r.heap = newHeap(r.heapSize)
	defer func() {
		if err != nil {
			r.release(false)
		}
	}()
	// Setup is the untimed sequential pre-parallel phase; it is a pure
	// function of the app instance, so re-running it under a restore
	// rebuilds the identical master image and heap layout the checkpointed
	// run started from (the spaces themselves are then overwritten).
	app.Setup(r.heap)

	engine := sim.NewEngine()
	r.engine = engine
	if cp != nil {
		// Before SetLimit/SetSampler: both read the clock's position.
		engine.RestoreClock(cp.now, cp.seq)
	}
	if cfg.Limit > 0 {
		engine.SetLimit(cfg.Limit)
	}
	if ctx.Done() != nil {
		// The poll is purely observational (no events scheduled, no time
		// advanced), so a cancellable-but-never-cancelled context produces
		// results bit-identical to context.Background().
		engine.SetInterrupt(func() error { return ctx.Err() })
	}
	net := network.New(engine, model, cfg.Notify, cfg.Nodes)
	r.net = net
	// Compile the fault plan into this run's injector: each run owns its
	// PRNG, so identical configs replay bit-for-bit and concurrent runs on
	// one Machine never share fault state.
	if cfg.Faults != nil {
		r.inj = cfg.Faults.Compile(cfg.Nodes)
		net.SetFaults(r.inj) // no-op unless the plan has wire-active rules
		if r.inj.Straggling() {
			r.straggle = r.inj
		}
	}
	if cfg.Trace != nil {
		// tr stays nil when tracing is off: every emit site costs one branch.
		r.tr = trace.New(engine, cfg.Trace)
		net.SetTracer(r.tr)
	}
	tr := r.tr

	reg, _ := proto.Lookup(cfg.Protocol) // a Machine's config is validated
	env := &proto.Env{
		Engine:      engine,
		Model:       model,
		Net:         net,
		Homes:       proto.NewHomes(cfg.Nodes, r.heapSize/cfg.BlockSize),
		Master:      r.heap.master,
		MasterPages: r.heap.touched,
		Tracer:      tr,
	}
	r.env = env
	if reg.Meta.NeedsClocks {
		// Only the LRC family exchanges vector clocks and write notices.
		env.Log, env.VCs = proto.NewLog(cfg.Nodes), proto.NewClocks(cfg.Nodes)
	}
	// Per-node state comes out of one slab per kind, not one object per
	// node: construction cost is what a 1024-node run pays before its
	// first event. Pointers into the slabs keep every use unchanged.
	env.Spaces = make([]*mem.Space, cfg.Nodes)
	env.Stats = make([]*stats.Node, cfg.Nodes)
	r.statSlab = make([]stats.Node, cfg.Nodes)
	for i := range r.statSlab {
		env.Spaces[i] = mem.NewSpace(r.heapSize, cfg.BlockSize)
		env.Stats[i] = &r.statSlab[i]
	}

	r.p = reg.New(env)
	r.sy = synch.New(env)
	r.sy.SetProtocol(r.p)

	// Copysets stay inline-word cheap at ≤64 nodes and spill to paged
	// bitmaps above; release drops the spill pages with the sets.
	r.writers = writerSets.Get(r.heapSize / cfg.BlockSize)
	if cp == nil {
		if !cfg.StaticHomes {
			env.Homes.BeginFirstTouch()
		}
		env.SeedHomes()
		if cfg.Sequential {
			preclaim(env)
		}
	}
	// The sharing-pattern profiler is pure bookkeeping fed from the access
	// and protocol paths; like the tracer it is wired after seeding and
	// preclaim so only parallel-phase activity is profiled.
	if cfg.ShareProfile {
		r.prof = shareprof.New(cfg.Nodes, r.heapSize, cfg.BlockSize)
		env.Prof = r.prof
	}
	prof := r.prof
	// The critical-path tracker is likewise wired after seeding and
	// preclaim, so only parallel-phase causality is recorded; its chains
	// root at the parallel phase's t=0 on every node.
	if cfg.CritPath {
		r.crit = critpath.New(cfg.Nodes)
		net.SetCrit(r.crit)
		env.Crit = r.crit
	}
	if cfg.WhatIf != nil {
		net.SetScale(cfg.WhatIf)
	}
	if tr != nil || prof != nil {
		// Wire the tag-transition observer only now, so the untimed heap
		// seeding and baseline preclaim above do not spam the trace (or
		// the profiler's invalidation ledger).
		for i, sp := range env.Spaces {
			sp.OnTag = func(b int, old, new mem.Access) {
				if tr != nil {
					tr.InstantMsg(i, trace.CatMem, "tag", tagArrows[old][new],
						trace.A("block", int64(b)))
				}
				if prof != nil {
					prof.OnTag(i, b, old, new)
				}
			}
		}
	}

	// The phase accountant is always on: Ctx.Barrier cuts each node's
	// stats at its barrier returns, pure bookkeeping that cannot yield.
	r.phases = metrics.NewPhaseAccountant(cfg.Nodes)
	if cfg.SampleEvery > 0 {
		r.sampler = metrics.NewSampler(cfg.SampleEvery, env.Stats, metrics.Probes{
			Traffic:   net.Traffic,
			LockQueue: r.sy.QueuedWaiters,
			Sharing: func() (int64, int64) {
				if prof == nil {
					return 0, 0
				}
				return prof.SharingFaults()
			},
		})
		engine.SetSampler(cfg.SampleEvery, r.sampler.Tick)
	}

	if cp != nil {
		if err := r.restore(cp); err != nil {
			return nil, err
		}
	}

	if cfg.Notify == network.Polling && !cfg.Sequential {
		r.dilation = r.info.PollDilation
	}
	// Every endpoint dispatches service by kind class: synchronization
	// below proto.ProtoKindBase, the coherence protocol above, whose
	// shipped block (Data) is charged its install copy here.
	sy, p, model := r.sy, r.p, env.Model
	cost := func(msg *network.Msg) sim.Time {
		if msg.Kind < proto.ProtoKindBase {
			return sy.ServiceCost(msg)
		}
		return model.MemCopy(len(msg.Data)) + p.ServiceCost(msg)
	}
	handler := func(msg *network.Msg) {
		if msg.Kind < proto.ProtoKindBase {
			sy.Handle(msg)
			return
		}
		p.Handle(msg)
	}
	// One body for every node: the engine's only procs are the nodes',
	// created below in node order, so a proc's index is its node id.
	body := func(pr *sim.Proc) {
		n := &r.nodes[pr.Index()]
		if n.resuming { // reborn inside the barrier the cut suppressed
			n.inRuntime = false
			n.barrierResumed()
		}
		app.Run(&n.ctx)
		if n.resuming {
			n.refuse("returned")
		}
		n.finishAt = engine.Now()
		if ct := r.crit; ct != nil {
			ct.Finish(n.id, n.finishAt)
		}
		// Service time stolen from computation extends the *next*
		// Compute call; what was charged after the last one never
		// lengthened anything, so give it back — the breakdown
		// components must describe time that actually passed.
		n.stats.Stolen -= n.stolen
		n.stolen = 0
	}
	r.nodes = make([]Node, cfg.Nodes)
	engine.ReserveProcs(cfg.Nodes)
	env.Procs = make([]*sim.Proc, cfg.Nodes)
	for i := range r.nodes {
		n := &r.nodes[i]
		*n = Node{id: i, ctx: Ctx{n: n}, run: r, space: env.Spaces[i], stats: env.Stats[i], ep: net.Endpoint(i)}
		n.ep.Bind(n, cost, handler)
		if cp == nil {
			n.proc = engine.NewProc(nodeNames[i], 0, body)
		} else {
			// A goroutine stack cannot be restored: the node is reborn parked
			// in the cut barrier and runs its body from the top once woken.
			n.inRuntime, n.resuming = true, true
			n.stolen = cp.stolen[i]
			n.barStart = cp.barStart[i]
			n.barFlush0 = cp.barFlush0[i]
			n.proc = engine.NewProcBlocked(nodeNames[i], "barrier", -1, body)
		}
		env.Procs[i] = n.proc
	}
	if ct := r.crit; ct != nil {
		ct.Runtime = func(i int) bool { return r.nodes[i].inRuntime }
	}
	if ct := r.crit; tr != nil || ct != nil {
		engine.SetHooks(sim.Hooks{
			ProcBlock: func(pr *sim.Proc, reason string, id int) {
				if tr != nil {
					tr.InstantMsgID(pr.Index(), trace.CatSim, "block", reason, id)
				}
				if ct != nil {
					ct.Block(pr.Index(), engine.Now())
				}
			},
			ProcUnblock: func(pr *sim.Proc) {
				if tr != nil {
					tr.Instant(pr.Index(), trace.CatSim, "unblock")
				}
				if ct != nil {
					ct.Unblock(pr.Index(), engine.Now())
				}
			},
		})
	}
	if r.inj != nil && r.inj.StartBarrier() > 0 && !r.inj.Started() {
		// The plan arms only when its start barrier completes; the hook
		// attaches the wire rules and releases the straggler gate there.
		r.sy.OnBarrierFull = r.barrierHook
	}
	return r, nil
}

// runError wraps what Engine.Run returned with the configuration it ran. A
// run that hit the virtual time limit on the ARQ path also says which links
// it was still retransmitting into — a partition that never heals, a drop
// rate the backoff cannot beat — so the report names the wire, not only the
// procs waiting behind it.
func (r *run) runError(runErr error) error {
	var links strings.Builder
	var limit *sim.LimitError
	if errors.As(runErr, &limit) {
		const show = 8
		unacked := r.net.UnackedLinks()
		for i, l := range unacked[:min(len(unacked), show)] {
			sep := "; "
			if i == 0 {
				sep = "; unacked links: "
			}
			fmt.Fprintf(&links, "%s%d→%d: %d frames, oldest sent at %v, %d attempts",
				sep, l.Src, l.Dst, l.Frames, l.OldestSent, l.Attempts)
		}
		if more := len(unacked) - show; more > 0 {
			fmt.Fprintf(&links, "; and %d more", more)
		}
	}
	return fmt.Errorf("core: %s/%s/%d: %w%s", r.info.Name, r.cfg.Protocol, r.cfg.BlockSize, runErr, links.String())
}

// finish drains the completed simulation into a Result — the tail of every
// Run variant once the engine loop returns. Engine.Run has unwound every
// proc by then, so whichever way finish leaves, nothing touches the spaces
// again; the master image goes back too unless a Result carries it out.
func (r *run) finish(runErr error) (res *Result, err error) {
	defer func() { r.release(res != nil) }()
	cfg := &r.cfg
	if runErr == nil {
		runErr = r.err
	}
	if r.crit != nil && r.tr != nil && runErr == nil {
		// Paint the recovered critical path into the trace as a per-node
		// "crit" lane before flushing, so the Perfetto view shows the
		// exact chain the completion time followed.
		for s := range r.crit.Path() {
			var arg [1]trace.Arg // the tracer keeps no Arg, so this stays on the stack
			args := arg[:0]
			if s.Block >= 0 {
				arg[0] = trace.A("block", int64(s.Block))
				args = arg[:]
			}
			r.tr.SpanAt(s.Node, trace.CatCrit, s.Comp.String(), s.Start, s.End, args...)
		}
	}
	traceErr := r.tr.Flush() // nil-safe; flush even when the run aborted so the partial trace is inspectable
	if runErr != nil {
		if ctxErr := r.ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, r.runError(runErr)
	}
	if traceErr != nil {
		// No Result beside a silently truncated trace file.
		return nil, fmt.Errorf("core: trace: %w", traceErr)
	}

	r.p.Finalize()
	// Write the authoritative copies back into the master image. Outside
	// the union of the dirty maps every copy and the master itself are
	// still zero, so only blocks inside it are collected.
	pages := r.heap.touched
	for _, sp := range r.env.Spaces {
		pages.Merge(sp.Dirty())
	}
	bs := cfg.BlockSize
	for b := range pages.Blocks(bs, r.heapSize) {
		copy(r.heap.master[b*bs:(b+1)*bs], r.p.Collect(b))
	}

	res = &Result{
		App:       r.info.Name,
		Protocol:  cfg.Protocol,
		BlockSize: cfg.BlockSize,
		Notify:    cfg.Notify,
		Nodes:     cfg.Nodes,
		Time:      r.engine.Now(),
		Heap:      r.heap,
		PerNode:   r.statSlab, // the run is over: nothing writes a node's stats again
	}
	for i := 0; i < cfg.Nodes; i++ {
		// Close each node's final phase at the moment its body returned,
		// and book the tail it then spent waiting for the run to end
		// (trailing message drain, slower siblings) as Idle — with that,
		// every node's components sum to res.Time exactly.
		r.phases.Cut(i, r.nodes[i].finishAt, r.env.Stats[i])
		r.env.Stats[i].Idle = res.Time - r.nodes[i].finishAt
	}
	res.Phases = r.phases.Phases()
	if r.sampler != nil {
		r.sampler.Finish(r.engine.Now())
		res.Samples = r.sampler.Series()
	}
	if r.prof != nil {
		res.Sharing = r.prof.Report(r.heap.alloc.Regions())
	}
	if r.crit != nil {
		res.CritPath = r.crit.Report(r.heap.alloc.Regions(), cfg.BlockSize)
	}
	for i := 0; i < cfg.Nodes; i++ {
		res.Total.Add(r.env.Stats[i])
		s := &r.net.Endpoint(i).Stats
		res.MsgLatency.Merge(&s.Latency)
		res.RetransmitLatency.Merge(&s.RetransmitLatency)
	}
	t := r.net.Traffic()
	res.NetMsgs, res.NetBytes = t.MsgsSent, t.BytesSent
	res.Retransmits, res.Timeouts, res.WireDrops = t.Retransmits, t.Timeouts, t.WireDrops
	res.Duplicates, res.AcksSent = t.Duplicates, t.AcksSent
	for i := range r.writers {
		if c := r.writers[i].Count(); c > 0 {
			res.BlocksWritten++
			if c > 1 {
				res.MultiWriterBlocks++
			}
		}
	}
	res.ProtoStaticBytes, res.ProtoPeakBytes = r.p.MemFootprint()
	res.ProtoStaticBytes += r.env.Homes.MemBytes()
	return res, nil
}

// releaseHook, when non-nil, sees every space just before it is recycled.
// Tests set it to check the dirty-map invariant on real runs.
var releaseHook func(*mem.Space)

// writerSets is where the runs' per-block writer sets wait between runs.
var writerSets = mem.NewPool[proto.Copyset]()

// release gives back what the run drew from the pools: the spaces' slabs,
// the protocol's and the home map's directory shards, the writer sets, the
// network, the profilers' tables and record chunks and, unless it leaves
// with the Result, the master image. Every exit of a run comes through here
// once, after the engine has stopped and any reports are made — finish,
// runToCapture, and a buildRun that fails halfway. The tracer ends first,
// writing out what it still holds.
func (r *run) release(imageLeaves bool) {
	r.tr.Close() // nil-safe; its error, if the run wanted it, came from a Flush
	if r.env != nil {
		for _, sp := range r.env.Spaces {
			if releaseHook != nil {
				releaseHook(sp)
			}
			sp.Release()
		}
		r.env.ReleaseTables()
	}
	clear(r.writers)
	writerSets.Put(r.writers)
	r.net.Close()
	if r.prof != nil {
		r.prof.Release()
	}
	if r.crit != nil {
		r.crit.Release()
	}
	if !imageLeaves {
		r.heap.release()
	}
}

// RunVerified runs the app and checks its image: see VerifyAndRelease.
func (m *Machine) RunVerified(app App) (*Result, error) {
	return m.RunVerifiedContext(context.Background(), app)
}

// RunVerifiedContext is RunVerified with host-side cancellation (see
// RunContext).
func (m *Machine) RunVerifiedContext(ctx context.Context, app App) (*Result, error) {
	res, err := m.RunContext(ctx, app)
	if err != nil {
		return nil, err
	}
	if err := VerifyAndRelease(app, res); err != nil {
		return nil, fmt.Errorf("core: %s verify: %w", app.Info().Name, err)
	}
	return res, nil
}

// preclaim hands every block to node 0 read-write: the sequential baseline
// has no access-control activity at all. Tags never drop, so the protocol's
// own per-block tables are never consulted. Like SeedHomes it copies only
// the master pages Setup touched.
func preclaim(env *proto.Env) {
	sp := env.Spaces[0]
	for b := 0; b < sp.NumBlocks(); b++ {
		env.Homes.Claim(b, 0)
		sp.SetTag(b, mem.ReadWrite)
	}
	bs := sp.BlockSize()
	for b := range env.MasterPages.Blocks(bs, len(env.Master)) {
		copy(sp.BlockData(b), env.Master[b*bs:(b+1)*bs])
	}
}

func roundUp(n, to int) int { return (n + to - 1) / to * to }

// tagArrows[old][new] is the trace detail of a tag transition, "old->new".
var tagArrows = func() (t [mem.ReadWrite + 1][mem.ReadWrite + 1]string) {
	for old := range t {
		for new := range t[old] {
			t[old][new] = mem.Access(old).String() + "->" + mem.Access(new).String()
		}
	}
	return t
}()
