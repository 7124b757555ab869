package core

import (
	"fmt"

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
)

// Node is one simulated processor: an application proc plus the DSM runtime
// state the protocol and notification model need.
type Node struct {
	id     int
	run    *run
	engine *sim.Engine
	model  *timing.Model
	space  *mem.Space
	stats  *stats.Node
	ep     *network.Endpoint
	proc   *sim.Proc
	ctx    Ctx // the application's handle on this node, passed to its body

	protocol proto.Protocol
	sync     *synch.Sync
	tracer   *trace.Tracer // nil when tracing is off

	// prof is the sharing-pattern profiler, nil when profiling is off;
	// every hook on the access hot path hides behind that nil check so
	// the off configuration stays zero-alloc and branch-cheap. profAddr
	// and profSize remember the access span currently being validated,
	// so a fault can be attributed to the exact bytes that missed.
	prof               *shareprof.Profiler
	profAddr, profSize int

	// crit is the critical-path tracker, nil when the profiler is off;
	// like prof, every hook hides behind the nil check. scale is the
	// what-if cost rescaling, nil outside -whatif re-simulations.
	crit  *critpath.Tracker
	scale *critpath.Scale

	// phases receives a per-node cut at every barrier return (and one
	// final cut when the body finishes), building Result.Phases.
	phases *metrics.PhaseAccountant
	// finishAt is when the node's body returned; the gap to the run's end
	// becomes stats.Idle.
	finishAt sim.Time

	// barStart and barFlush0 record, at every Ctx.Barrier entry, the entry
	// time and the FlushTime already booked. Ctx.Barrier uses them to book
	// the stall when the node resumes — and a checkpoint captures them so a
	// forked run's continuation can book the identical stall for a barrier
	// it entered in the original run.
	barStart  sim.Time
	barFlush0 sim.Time

	// writers is the run-local per-block writer set shared by all nodes
	// of one run (Table 2's classification); Machine itself stays stateless.
	writers []proto.Copyset

	dilation float64

	// faults is the run's injector, set only when the plan has straggler
	// windows: Compute consults Dilation per call. Wire faults never reach
	// the node — the network's ARQ layer absorbs them.
	faults *faults.Injector

	// inRuntime is true while the app thread is blocked inside the DSM
	// runtime (fault, lock, barrier, flush); message service is then
	// immediate instead of waiting for a poll or interrupt. resuming is set
	// on a node restored from a checkpoint until Ctx.Phases takes up its
	// epoch, inPhase while a phase body runs.
	inRuntime, resuming, inPhase bool

	// stolen accumulates protocol service time charged to the current
	// computation; Compute extends itself by this amount.
	stolen sim.Time

	// checkDebt counts shared accesses whose software-instrumentation
	// cost (Config.SoftwareAccessCheck) has not been charged yet; it is
	// settled at the next Compute or synchronization operation.
	checkDebt int64

	// Validated-span cache for Ctx.access: while the space's tag version
	// is unchanged, any sub-range of [vFirst, vLast] is known valid for
	// vWrite-or-weaker access and the per-block tag scan can be skipped.
	vFirst, vLast int
	vWrite        bool
	vVer          uint32
	vOK           bool

	// holdBoost escalates the post-fault forward-progress window while a
	// multi-block access keeps losing already-granted blocks; reset on
	// every clean pass.
	holdBoost uint
}

// settleChecks charges the accumulated software access-check cost; proc
// context. No-op under the hardware access-control model.
func (n *Node) settleChecks() {
	if n.checkDebt == 0 {
		return
	}
	cost := sim.Time(n.checkDebt) * n.run.cfg.SoftwareAccessCheck
	n.checkDebt = 0
	n.stats.Compute += cost
	start := n.engine.Now()
	n.proc.Sleep(cost)
	if ct := n.crit; ct != nil {
		ct.CheckSeg(n.id, start, n.engine.Now())
	}
}

// refuse ends a resumed run whose app did not start from its epoch; proc
// context. The engine stops once this node parks.
func (n *Node) refuse(what string) {
	n.run.err = fmt.Errorf("%w: %s: node %d %s before Ctx.Phases took up its start epoch %d",
		ErrNotResumable, n.run.info.Name, n.id, what, n.phases.Epoch(n.id))
	n.engine.Stop()
	n.proc.Block("refused")
}

// Computing implements network.Host.
func (n *Node) Computing() bool { return !n.inRuntime && !n.proc.Done() }

// Steal implements network.Host.
func (n *Node) Steal(cost sim.Time) {
	n.stolen += cost
	n.stats.Stolen += cost
}

// fault resolves an access violation; proc context.
func (n *Node) fault(block int, write bool) {
	if pr := n.prof; pr != nil {
		// Attribute before the protocol resolves the fault: resolution
		// installs a fresh copy and would erase the staleness evidence.
		pr.Fault(n.id, block, n.profAddr, n.profSize, write)
	}
	if write {
		n.stats.WriteFaults++
		n.writers[block].Add(n.id)
	} else {
		n.stats.ReadFaults++
	}
	start := n.engine.Now()
	n.inRuntime = true
	n.proc.Sleep(n.model.FaultDelivery)
	n.protocol.Fault(n.id, block, write)
	n.inRuntime = false
	if n.holdBoost == 0 {
		n.ep.Holdoff()
	} else {
		// Contended multi-block access: widen the window exponentially
		// (capped at 2 ms) so the whole span survives one clean pass.
		d := n.model.PollDelay << min(n.holdBoost, 10)
		if limit := 2 * sim.Millisecond; d > limit {
			d = limit
		}
		n.ep.HoldoffFor(d)
	}
	elapsed := n.engine.Now() - start
	if write {
		n.stats.WriteStall += elapsed
		n.stats.WriteFaultTime.ObserveTime(elapsed)
	} else {
		n.stats.ReadStall += elapsed
		n.stats.ReadFaultTime.ObserveTime(elapsed)
	}
	if ct := n.crit; ct != nil {
		// The fault's proc-side time that did not pass blocked (delivery
		// sleep, post-wake tag rescans) books as runtime overhead; blocked
		// intervals already live on the message chain that ended them.
		ct.CheckSeg(n.id, start, n.engine.Now())
	}
	if tr := n.tracer; tr != nil {
		tr.Span(n.id, trace.CatMem, "fault", start,
			trace.A("block", int64(block)), trace.A("write", trace.Bool(write)))
	}
}
