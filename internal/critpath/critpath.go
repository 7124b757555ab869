// Package critpath recovers the exact critical path of a simulated run.
//
// The simulator's determinism makes the dependency structure of an
// execution fully observable: every scheduled event has one well-defined
// "last finisher" that enabled it — the message whose delivery woke a
// proc, the previous service occupying a network interface, the
// retransmit timer that fired, the compute segment that ended at a send.
// The tracker records one closed interval per such activity, each linked
// to its predecessor, with the invariant that a record's start equals its
// predecessor's end. Walking back from the record with the latest end
// therefore yields a contiguous chain from t=0 to the run's final virtual
// time whose segment lengths sum to the completion time exactly — the
// critical path — and each segment carries a component label (compute,
// message wire, message service, lock wait, barrier wait, home
// forwarding, ARQ retransmission, straggler dilation, runtime overhead),
// the node it ran on and the memory block it concerned.
//
// Like internal/trace and internal/shareprof, the tracker is strictly
// observational: it never schedules events or advances virtual time, and
// every instrumentation site holds a *Tracker that is nil when the
// profiler is off, guarded by a single branch, so the profiler-off path
// stays zero-alloc and runs byte-identical. With it on, the records live in
// chunks drawn from a pool (mem.Pool) that Release gives back when the run
// ends, and the path is walked in place (Path), so a warm run pays in bytes
// only for its report.
package critpath

import (
	"dsmsim/internal/digest"
	"dsmsim/internal/mem"
	"dsmsim/internal/sim"
)

// Component classifies one segment of the dependency chain.
type Component uint8

const (
	// Compute is application work requested through Ctx.Compute (plus
	// polling-mode dilation, which models the same instructions running
	// slower) and trailing proc work outside the DSM runtime.
	Compute Component = iota
	// Straggler is the extra compute time a fault-plan dilation rule
	// stretched onto a node, on top of the requested work.
	Straggler
	// Overhead is DSM-runtime occupancy on the path that is not a
	// message: access-check debt, fault delivery, notify/holdoff gaps
	// between a message's arrival and its service, and handler-stolen
	// extensions of compute segments.
	Overhead
	// MsgWire is protocol-message wire transit (send overhead + link
	// latency + FIFO ordering wait).
	MsgWire
	// MsgService is protocol-message handler occupancy at the receiver.
	MsgService
	// LockWait is lock-protocol traffic: wire and service time of
	// acquire/grant/release messages on the path.
	LockWait
	// BarrierWait is barrier-protocol traffic: arrive/release messages.
	BarrierWait
	// Forward is the wire transit of a request re-forwarded by a stale
	// home or non-owner to the real home/owner.
	Forward
	// Retransmit is ARQ machinery on the path: retransmitted frames,
	// retransmit timers, acknowledgements and reorder-buffer waits.
	Retransmit

	// NumComponents sizes per-component accumulators.
	NumComponents
)

var componentNames = [NumComponents]string{
	"compute", "straggler", "overhead", "msg-wire", "msg-service",
	"lock-wait", "barrier-wait", "forward", "retransmit",
}

// String names the component for reports and CSV headers.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "unknown"
}

// The message-kind layout, declared here because this is the lowest layer
// that reads it: the synchronization layer (internal/synch) numbers its
// lock messages 0..LockKinds-1 and its barrier messages from LockKinds, and
// every protocol numbers its own from ProtoKindBase up (proto.ProtoKindBase).
const (
	LockKinds     = 4
	ProtoKindBase = 100
)

// wireComp classifies a message's wire transit by its kind.
func wireComp(kind int) Component {
	switch {
	case kind >= ProtoKindBase:
		return MsgWire
	case kind < LockKinds:
		return LockWait
	default:
		return BarrierWait
	}
}

// svcComp classifies a message's service occupancy by its kind.
func svcComp(kind int) Component {
	if kind >= ProtoKindBase {
		return MsgService
	}
	return wireComp(kind)
}

// record is one closed interval of the dependency graph. pred is the id
// (index+1) of the predecessor record, whose end equals this record's
// start; pred 0 roots a chain at start == 0. scalable is the portion of
// the span a what-if rescaling of the record's cost class would shrink.
type record struct {
	start, end sim.Time
	scalable   sim.Time
	pred       int32
	node       int32
	block      int32
	comp       Component
}

// Tracker accumulates dependency records for one run. It is
// single-threaded, like the engine that drives it.
type Tracker struct {
	State
	forward bool // the next transmit is a forwarding hop

	// Runtime reports whether node i is currently inside DSM-runtime
	// code (fault handling, lock/barrier entry); open proc segments
	// closed while it is true are labelled Overhead instead of Compute.
	Runtime func(node int) bool
}

// New creates a tracker for a machine of the given node count.
func New(nodes int) *Tracker {
	return &Tracker{State: State{
		procLast: make([]int32, nodes),
		mark:     make([]sim.Time, nodes),
		lastSvc:  make([]int32, nodes),
		svcRec:   make([]int32, nodes),
	}}
}

const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
)

// rec returns the record with the given id (never 0).
func (t *Tracker) rec(id int32) *record {
	return &t.chunks[(id-1)>>chunkShift][(id-1)&(chunkLen-1)]
}

// chunkPool is where record chunks wait between runs.
var chunkPool = mem.NewPool[record]()

// newChunk draws an all-zero record chunk from the pool.
func newChunk() *[chunkLen]record { return (*[chunkLen]record)(chunkPool.Get(chunkLen)) }

func (t *Tracker) add(r record) int32 {
	if int(t.n>>chunkShift) == len(t.chunks) {
		t.chunks = append(t.chunks, newChunk())
	}
	t.n++
	id := t.n
	*t.rec(id) = r
	if r.end >= t.maxEnd {
		t.maxEnd = r.end
		t.final = id
	}
	return id
}

// procComp labels an open proc segment by the node's current mode.
func (t *Tracker) procComp(node int) Component {
	if t.Runtime != nil && t.Runtime(node) {
		return Overhead
	}
	return Compute
}

// seg closes the node's open proc segment at upto (if any time passed)
// and returns the node's chain head.
func (t *Tracker) seg(node int, upto sim.Time, comp Component, scalable sim.Time) int32 {
	if upto > t.mark[node] {
		id := t.add(record{start: t.mark[node], end: upto, scalable: scalable,
			pred: t.procLast[node], node: int32(node), block: -1, comp: comp})
		t.procLast[node] = id
		t.mark[node] = upto
	}
	return t.procLast[node]
}

// sendPred returns the causal predecessor for traffic originated by src
// right now: the in-flight event context when inside one, else the
// node's proc chain with the open segment closed at the send.
func (t *Tracker) sendPred(src int, now sim.Time) int32 {
	if t.cur != 0 {
		return t.cur
	}
	return t.seg(src, now, t.procComp(src), 0)
}

// Xmit records the wire transit of a message committed for delivery at
// arrive: the span [now, arrive] covers send overhead, link latency and
// any FIFO-ordering wait, of which wire (the pure link latency) is the
// what-if-scalable part. It returns the record id the delivery will
// chain from; the network stores it in the message.
func (t *Tracker) Xmit(src, dst, kind, block int, now, arrive, wire sim.Time) int32 {
	comp := wireComp(kind)
	if t.forward {
		comp = Forward
		t.forward = false
	}
	return t.add(record{start: now, end: arrive, scalable: wire,
		pred: t.sendPred(src, now), node: int32(dst), block: int32(block), comp: comp})
}

// SvcStart records a message's service occupancy committed at now: the
// service span [now, now+cost], chained from whatever released the
// endpoint — the previous service when the interface was busy right up
// to this instant, else the message's own arrival (with an Overhead gap
// record covering notify delay and holdoff, if any).
func (t *Tracker) SvcStart(node, kind, block int, xmit int32, arrived, now, cost sim.Time) {
	pred := xmit
	if b := t.lastSvc[node]; b != 0 && t.rec(b).end == now && now > arrived {
		pred = b
	} else if xmit != 0 && now > t.rec(xmit).end {
		pred = t.add(record{start: t.rec(xmit).end, end: now, pred: xmit,
			node: int32(node), block: int32(block), comp: Overhead})
	}
	t.svcRec[node] = t.add(record{start: now, end: now + cost, scalable: cost,
		pred: pred, node: int32(node), block: int32(block), comp: svcComp(kind)})
}

// BeginHandler enters the handler of the service committed by SvcStart:
// sends and proc wakeups during the handler chain from its record.
func (t *Tracker) BeginHandler(node int) {
	id := t.svcRec[node]
	t.svcRec[node] = 0
	t.lastSvc[node] = id
	t.cur = id
}

// EndHandler leaves the in-flight event context.
func (t *Tracker) EndHandler() { t.cur = 0 }

// Block closes the blocking node's open proc segment at now.
func (t *Tracker) Block(node int, now sim.Time) {
	t.seg(node, now, t.procComp(node), 0)
}

// Unblock re-roots the node's proc chain on the event that woke it (the
// in-flight service record) and restarts its open segment at now, so
// blocked intervals contribute no proc-side length: the wait's time
// lives on the message chain that ended it.
func (t *Tracker) Unblock(node int, now sim.Time) {
	if t.cur != 0 {
		t.procLast[node] = t.cur
	}
	t.mark[node] = now
}

// ComputeSeg records one Ctx.Compute call that began at start: the
// requested work including polling-mode dilation ([start, start+poll],
// scalable under the compute class), straggler dilation stretched on top
// of it, and any handler-stolen extension up to now.
func (t *Tracker) ComputeSeg(node int, start, poll, total, now sim.Time) {
	t.seg(node, start, t.procComp(node), 0)
	t.seg(node, start+poll, Compute, poll)
	if total > poll {
		t.seg(node, start+total, Straggler, total-poll)
	}
	if now > start+total {
		t.seg(node, now, Overhead, 0)
	}
}

// CheckSeg records software access-check debt settled over [start, now]
// as part of the node's compute chain (the checks replace inline work).
func (t *Tracker) CheckSeg(node int, start, now sim.Time) {
	t.seg(node, start, t.procComp(node), 0)
	t.seg(node, now, Overhead, 0)
}

// Finish closes the node's proc chain when its body returns.
func (t *Tracker) Finish(node int, now sim.Time) {
	t.seg(node, now, t.procComp(node), 0)
}

// MarkForward tags the next transmit as a forwarding hop (a request
// bounced by a stale home or non-owner). Protocols call it immediately
// before the forwarding send.
func (t *Tracker) MarkForward() { t.forward = true }

// --- ARQ hooks (fault-injected runs only) ---------------------------------
//
// Under a wire-active fault plan every ARQ event the network schedules —
// frame deliveries, retransmit timers, acknowledgements — gets a record
// ending exactly at its fire time, so even a run whose final event is a
// stale timer or a late ack walks back exactly.

// ArqPred returns the causal predecessor for a (re)transmission attempt
// by src: the fired retransmit timer when retransmitting, the sender's
// chain on first send.
func (t *Tracker) ArqPred(src int, now sim.Time) int32 { return t.sendPred(src, now) }

// WireComp classifies one ARQ transmission attempt, consuming a pending
// forward mark; retransmissions book to Retransmit.
func (t *Tracker) WireComp(kind int, first bool) Component {
	if !first {
		return Retransmit
	}
	if t.forward {
		t.forward = false
		return Forward
	}
	return wireComp(kind)
}

// ArqFrame records one wire copy of a frame scheduled to arrive at arrive.
func (t *Tracker) ArqFrame(pred int32, dst, block int, comp Component, now, arrive sim.Time) int32 {
	return t.add(record{start: now, end: arrive, pred: pred,
		node: int32(dst), block: int32(block), comp: comp})
}

// ArqTimer records a retransmit timer armed at now for the deadline.
func (t *Tracker) ArqTimer(pred int32, dst int, now, deadline sim.Time) int32 {
	return t.add(record{start: now, end: deadline, pred: pred,
		node: int32(dst), block: -1, comp: Retransmit})
}

// ArqAck records an acknowledgement's wire transit. Acks are generated
// by the network interface inside a delivery event, so they chain from
// the in-flight context.
func (t *Tracker) ArqAck(dst int, now, arrive sim.Time) int32 {
	return t.add(record{start: now, end: arrive, pred: t.cur,
		node: int32(dst), block: -1, comp: Retransmit})
}

// ArqRelease re-stamps a reorder-buffered message released to the
// service queue at now: the buffering wait (caused by the loss of an
// earlier frame) chains from the frame's own arrival.
func (t *Tracker) ArqRelease(rec int32, dst, block int, now sim.Time) int32 {
	if rec == 0 || t.rec(rec).end >= now {
		return rec
	}
	return t.add(record{start: t.rec(rec).end, end: now, pred: rec,
		node: int32(dst), block: int32(block), comp: Retransmit})
}

// Context returns the in-flight event context record (0 in proc
// context). Protocols that defer work out of a handler with
// Engine.After capture it at schedule time and re-enter it with
// SetContext around the continuation, so the deferred work still chains
// from the service that enabled it.
func (t *Tracker) Context() int32 { return t.cur }

// SetContext enters an event context: a delivered ARQ frame, a fired
// retransmit timer, or a handler continuation re-entered via Context.
func (t *Tracker) SetContext(rec int32) { t.cur = rec }

// ClearContext leaves the in-flight event context.
func (t *Tracker) ClearContext() { t.cur = 0 }

// --- checkpoint/fork ------------------------------------------------------

// State is what a tracker has recovered of the path so far, which a
// checkpoint snapshots at a quiescent barrier instant (inside the
// barrier-full handler, with the release suppressed). A forked run
// restores it onto a fresh tracker so its recovered path — and therefore
// its report and CSV output — is byte-identical to a flat run of the same
// configuration.
type State struct {
	// Records live in fixed-size chunks, id-1 = chunk*chunkLen + offset:
	// a run makes hundreds of thousands, and a chunk list grows without
	// ever copying a record. The chunks come from a pool and go back to it
	// at Release.
	chunks []*[chunkLen]record
	n      int32 // records made; also the id of the latest

	procLast []int32    // per node: last record on the proc's chain
	mark     []sim.Time // per node: start of the open proc segment
	lastSvc  []int32    // per node: last completed service record
	svcRec   []int32    // per node: in-flight service record

	// cur is the record of the in-flight event context — the service
	// whose handler is running, the delivered ARQ frame, the fired
	// retransmit timer — or 0 in proc context.
	cur int32

	final  int32 // record with the latest end (ties: latest id)
	maxEnd sim.Time
}

// CaptureState snapshots the tracker. The snapshot's chunks are its own, not
// the pool's: a checkpoint is never released.
func (t *Tracker) CaptureState() *State { return digest.Clone(&t.State) }

// RestoreState applies a snapshot to a fresh tracker of the same node
// count, drawing the chunks from the pool Release returns them to. cur is
// restored too: the barrier release the resuming run replays must chain
// from the captured barrier-arrive service record, as the flat run's does.
func (t *Tracker) RestoreState(st *State) {
	rest := *st
	rest.chunks = nil
	digest.Copy(&t.State, &rest)
	for _, c := range st.chunks {
		nc := newChunk()
		*nc = *c
		t.chunks = append(t.chunks, nc)
	}
}

// Release clears the records and gives their chunks back to the pool, once
// the run's Report has been made and its path painted. The tracker holds no
// records afterwards.
func (t *Tracker) Release() {
	for i, c := range t.chunks {
		clear(c[:min(chunkLen, int(t.n)-i*chunkLen)])
		chunkPool.Put(c[:])
	}
	t.chunks, t.n, t.final, t.maxEnd = nil, 0, 0, 0
}
