// Link-layer reliability for the fault-injected network.
//
// When a fault plan with wire-active rules is attached (SetFaults), every
// cross-node Send is carried by a simple ARQ protocol instead of the
// reliable-fabric fast path: frames carry per-directed-link sequence
// numbers, receivers deliver strictly in order (buffering out-of-order
// arrivals, discarding duplicates) and acknowledge cumulatively, and
// senders retransmit on virtual-time timeouts with exponential backoff.
// The protocols above never see loss — only latency — so SC, SW-LRC and
// HLRC complete and verify unchanged under drops, duplicates, jitter and
// transient partitions.
//
// Everything runs in engine context off the event queue: retransmissions
// and acks are NI work, not host-CPU work, so they appear as wire latency
// but are never charged to the application thread and never enter the
// endpoint's service queue.
package network

import (
	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/sim"
	"dsmsim/internal/trace"
)

// rtoSlack pads the computed round-trip estimate so marginally late acks
// (queued same-instant events, holdoff boundaries) don't trigger spurious
// retransmissions in the fault-free direction of a lossy run.
const rtoSlack = 50 * sim.Microsecond

// rtoBackoffCap bounds exponential backoff at this multiple of the initial
// timeout: long partitions back off instead of hammering the cut link, but
// recovery is detected within a bounded interval once the window closes.
const rtoBackoffCap = 16

// SetFaults attaches a compiled fault injector. Only wire-active plans
// (drops, duplicates, jitter or partitions) switch the network onto the ARQ
// path; a nil injector or a straggler-only plan leaves every code path —
// and therefore every byte of output — identical to the fault-free network.
// A StartAtBarrier plan is held pending instead: the wire stays on the
// fast path until core reports the arming barrier and calls ActivateFaults,
// so the prefix before it is byte-identical to a fault-free run (which is
// what makes checkpoint/fork of that prefix sound). Call before any
// traffic flows.
func (n *Network) SetFaults(inj *faults.Injector) {
	if !inj.WireActive() {
		return
	}
	if inj.StartBarrier() > 0 {
		n.pendingFaults = inj
		return
	}
	n.goLive(inj)
}

// ActivateFaults switches a pending StartAtBarrier injector onto the wire.
// Core calls it (from engine context, between barrier arrival and release)
// when the arming barrier completes; earlier calls with no pending injector
// are no-ops. Every message sent from this instant on takes the ARQ path.
func (n *Network) ActivateFaults() {
	if n.pendingFaults != nil {
		n.goLive(n.pendingFaults)
		n.pendingFaults = nil
	}
}

// goLive puts inj on the wire and computes the terms of the retransmission
// deadline that are fixed for a plan: the wire time of an ack (a bare
// header) and the allowance past the nominal ack arrival.
func (n *Network) goLive(inj *faults.Injector) {
	n.faults = inj
	n.ackWire = n.model.OneWayLatency(n.model.MsgHeader)
	n.rtoPad = 2*inj.MaxJitter() + rtoSlack
}

// frame is one sender-side unacknowledged message: the master copy plus the
// retransmission state. Frames come from the network's free list (getFrame).
//
// Lifetime: a frame has exactly one timer pending from its first transmit
// until a timer expires on it acked — transmit arms one, a live expiry
// consumes it and the retransmission arms the next. The ack takes the frame
// off its link's queue and recycles the master copy; the stale expiry that
// follows holds the last reference and returns the frame to the free list.
type frame struct {
	m        *Msg // master copy; owns its (pooled) data buffer; nil once acked
	net      *Network
	next     *frame // behind it on the link's unacked queue; on the free list
	seq      uint64
	src, dst int
	wire     sim.Time // one-way latency of the frame, before any what-if scaling
	sent     sim.Time // first-transmission time
	rto      sim.Time // current timeout; doubles per expiry
	rtoCap   sim.Time
	attempts int
	timerRec int32 // critical-path record of the pending timer (profiler only)
}

// frameSlab is how many frames the free list grows by: about as many as a
// 16-node run under 1 % loss has pending at any moment.
const frameSlab = 32

// getFrame pops a free frame, refilling the list from a fresh slab when it
// is dry.
func (n *Network) getFrame() *frame {
	if n.frameFree == nil {
		slab := make([]frame, frameSlab)
		for i := range slab[:frameSlab-1] {
			slab[i].next = &slab[i+1]
		}
		n.frameFree = &slab[0]
	}
	f := n.frameFree
	n.frameFree = f.next
	return f
}

// putFrame returns a frame nothing references any more to the free list.
func (n *Network) putFrame(f *frame) {
	*f = frame{next: n.frameFree}
	n.frameFree = f
}

// linkTx is the sender side of one directed link.
type linkTx struct {
	nextSeq uint64
	// The unacknowledged frames, oldest first, linked through frame.next:
	// sequence order is append order, and a cumulative ack retires a prefix.
	head, tail *frame
	// lastNominal is the jitter-free arrival time of the link's most recent
	// transmission: the wire is FIFO, so a frame cannot overtake its
	// predecessor (the ARQ mirror of the fast path's lastArrival clamp —
	// without it, a small frame sent behind a 4KB transfer would "arrive"
	// 800µs early and time out spuriously in the reorder buffer).
	lastNominal sim.Time
}

// linkRx is the receiver side of one directed link: the next sequence
// number to deliver, and how many arrivals ahead of it wait for the gap to
// fill. Those wait in the network's one parked list, not in a buffer per
// link: a handful are parked at any moment, so a link's first loss costs no
// allocation and an in-order arrival on a link with none parked looks at
// nothing.
type linkRx struct {
	expect uint64
	parked int
}

// findParked returns the position in n.parked of the frame src sent to dst
// with sequence number seq, or -1.
func (n *Network) findParked(src, dst int, seq uint64) int {
	for i, m := range n.parked {
		if m.linkSeq == seq && m.Src == src && m.Dst == dst {
			return i
		}
	}
	return -1
}

// sendReliable is the ARQ counterpart of the Send fast path: register the
// message as an unacknowledged frame on the src→dst link and put its first
// copy on the wire.
func (ep *Endpoint) sendReliable(m *Msg) {
	net := ep.net
	pm := net.getMsg()
	*pm = *m
	pm.net = net
	pm.retained = false
	pm.sent = net.engine.Now()
	if pm.Data != nil && !pm.DataPooled {
		// Non-pooled data may alias live application memory; snapshot it so
		// retransmissions resend the contents as of the Send call.
		d := net.AllocData(len(pm.Data))
		copy(d, pm.Data)
		pm.Data, pm.DataPooled = d, true
	}
	if ep.tx == nil {
		ep.tx = make([]linkTx, len(net.eps))
	}
	tx := &ep.tx[m.Dst]
	model := net.model
	wire := model.OneWayLatency(pm.Bytes + model.MsgHeader)
	rto := net.faults.BaseRTO()
	if rto == 0 {
		// Send overhead, the frame out, the ack back, and the allowance.
		rto = model.SendOverhead + wire + net.ackWire + net.rtoPad
	}
	f := net.getFrame()
	*f = frame{
		m: pm, net: net, seq: tx.nextSeq, src: ep.id, dst: m.Dst,
		wire: wire, sent: pm.sent, rto: rto, rtoCap: rtoBackoffCap * rto,
	}
	tx.nextSeq++
	if tx.head == nil {
		tx.head = f
	} else {
		tx.tail.next = f
	}
	tx.tail = f
	ep.transmit(f)
}

// transmit puts one copy of a frame on the wire, drawing the link's faults
// in a fixed order (partition cut, drop, jitter, duplicate) so the PRNG
// stream — and with it the whole run — replays exactly from the seed, and
// arms the retransmission timer.
//
// The timer is armed past the nominal ack arrival for THIS transmission:
// the sender knows the deterministic wire model, so it accounts for the
// link being busy with earlier (possibly much larger) frames instead of
// guessing from its own frame size alone. Only genuine loss — of the frame
// or of its acks — can expire the timer; under jitter the 2×MaxJitter
// allowance covers the worst frame+ack delay.
func (ep *Endpoint) transmit(f *frame) {
	net := ep.net
	inj := net.faults
	eng := net.engine
	model := net.model
	now := eng.Now()
	f.attempts++
	wire := f.wire
	if sc := net.scale; sc != nil {
		wire = sc.Wire(f.m.Kind, wire)
	}
	base := now + model.SendOverhead + wire
	tx := &ep.tx[f.dst]
	if base < tx.lastNominal {
		base = tx.lastNominal // FIFO wire: no overtaking the previous frame
	}
	tx.lastNominal = base
	// Every event this attempt schedules gets a dependency record ending
	// exactly at its fire time, so even a run whose final event is a stale
	// timer or a duplicate arrival walks back exactly. The PRNG draw order
	// below is untouched: the profiler never perturbs the replay.
	ct := net.crit
	var critPred int32
	var critComp critpath.Component
	if ct != nil {
		critPred = ct.ArqPred(f.src, now)
		critComp = ct.WireComp(f.m.Kind, f.attempts == 1)
	}
	switch {
	case inj.Cut(f.src, f.dst, now):
		ep.Stats.WireDrops++
		if tr := net.tracer; tr != nil {
			tr.Instant(ep.id, trace.CatNet, "cut",
				trace.A("dst", int64(f.dst)), trace.A("seq", int64(f.seq)))
		}
	case inj.DropDraw(f.src, f.dst):
		ep.Stats.WireDrops++
		if tr := net.tracer; tr != nil {
			tr.Instant(ep.id, trace.CatNet, "drop",
				trace.A("dst", int64(f.dst)), trace.A("seq", int64(f.seq)))
		}
	default:
		at := base + inj.JitterDraw()
		cm := ep.wireCopy(f)
		if ct != nil {
			cm.crit = ct.ArqFrame(critPred, f.dst, f.m.Block, critComp, now, at)
		}
		eng.ScheduleArg(at, deliverFrame, cm)
		if inj.DupDraw() {
			at = base + inj.JitterDraw()
			cm = ep.wireCopy(f)
			if ct != nil {
				cm.crit = ct.ArqFrame(critPred, f.dst, f.m.Block, critComp, now, at)
			}
			eng.ScheduleArg(at, deliverFrame, cm)
		}
	}
	deadline := base + net.ackWire + net.rtoPad
	if t := now + f.rto; t > deadline {
		deadline = t // exponential backoff dominates once timeouts begin
	}
	if ct != nil {
		f.timerRec = ct.ArqTimer(critPred, f.src, now, deadline)
	}
	// Deadlines rise nearly monotonically and most expire on an acked frame:
	// they wait in the engine's timeout lane, not in its heap.
	eng.ScheduleTimeout(deadline, frameTimeout, f)
}

// wireCopy clones the master message for one wire transmission. Each copy
// owns a fresh pooled data buffer: the arrival that wins delivery hands its
// buffer to the handler under the normal recycling contract, duplicates are
// recycled whole at dedup, and the master's buffer stays with the frame
// until the ack — no buffer is ever shared between live messages.
func (ep *Endpoint) wireCopy(f *frame) *Msg {
	net := ep.net
	cm := net.getMsg()
	*cm = *f.m
	cm.net = net
	cm.retained = false
	cm.linkSeq = f.seq
	if f.m.Data != nil {
		cm.Data = net.AllocData(len(f.m.Data))
		copy(cm.Data, f.m.Data)
		cm.DataPooled = true
	}
	return cm
}

// deliverFrame is the ARQ arrival event: dedup by sequence number, release
// the in-order prefix to the endpoint's service queue, and acknowledge
// cumulatively (every arrival re-acks, so lost acks heal on the next
// arrival or retransmission).
func deliverFrame(arg any) {
	m := arg.(*Msg)
	if ct := m.net.crit; ct != nil {
		// Frame-delivery context: the ack this arrival generates (and any
		// reorder-buffer releases) chain from the frame's transit record.
		ct.SetContext(m.crit)
		deliverFrame1(m)
		ct.ClearContext()
		return
	}
	deliverFrame1(m)
}

func deliverFrame1(m *Msg) {
	net := m.net
	dst := net.eps[m.Dst]
	src := m.Src
	if dst.rx == nil {
		dst.rx = make([]linkRx, len(net.eps))
	}
	rx := &dst.rx[src]
	if m.linkSeq < rx.expect || rx.parked > 0 && net.findParked(src, dst.id, m.linkSeq) >= 0 {
		dst.Stats.Duplicates++
		if tr := net.tracer; tr != nil {
			tr.Instant(dst.id, trace.CatNet, "dup",
				trace.A("src", int64(src)), trace.A("seq", int64(m.linkSeq)))
		}
		net.Recycle(m)
		dst.sendAck(src, rx.expect)
		return
	}
	if m.linkSeq != rx.expect {
		// Ahead of a gap: park it until the missing frames arrive.
		rx.parked++
		net.parked = append(net.parked, m)
	} else {
		// In order — the common case never looks at the parked list.
		rx.expect++
		dst.accept(m)
		for rx.parked > 0 {
			i := net.findParked(src, dst.id, rx.expect)
			if i < 0 {
				break
			}
			mm, last := net.parked[i], len(net.parked)-1
			net.parked[i], net.parked[last] = net.parked[last], nil
			net.parked = net.parked[:last]
			rx.parked--
			rx.expect++
			dst.accept(mm)
		}
	}
	dst.trySvc()
	dst.sendAck(src, rx.expect)
}

// accept hands a frame the link layer has sequenced to the normal arrival
// path: exactly-once in-order delivery is established, so the service queue
// sees the same FIFO stream a healthy link produces.
func (ep *Endpoint) accept(m *Msg) {
	net := ep.net
	m.linkSeq = 0
	m.arrived = net.engine.Now()
	if ct := net.crit; ct != nil {
		m.crit = ct.ArqRelease(m.crit, ep.id, m.Block, m.arrived)
	}
	if tr := net.tracer; tr != nil {
		tr.Instant(ep.id, trace.CatNet, "recv",
			trace.A("src", int64(m.Src)), trace.A("kind", int64(m.Kind)),
			trace.A("block", int64(m.Block)))
	}
	ep.queue = append(ep.queue, m)
}

// sendAck transmits a cumulative acknowledgement ("next sequence number I
// expect") back to the link's sender. Acks are NI-generated — no send
// overhead, no service cost, not counted as messages — but they cross the
// same faulty wire: they can be dropped, jittered, or cut by a partition,
// in which case a later retransmission provokes a fresh one.
func (ep *Endpoint) sendAck(to int, expect uint64) {
	net := ep.net
	inj := net.faults
	ep.Stats.AcksSent++
	now := net.engine.Now()
	if inj.Cut(ep.id, to, now) || inj.DropDraw(ep.id, to) {
		ep.Stats.WireDrops++
		return
	}
	am := net.getMsg()
	*am = Msg{Src: ep.id, Dst: to, linkSeq: expect}
	am.net = net
	at := now + net.ackWire + inj.JitterDraw()
	if ct := net.crit; ct != nil {
		am.crit = ct.ArqAck(to, now, at)
	}
	net.engine.ScheduleArg(at, deliverAck, am)
}

// deliverAck retires every frame the cumulative ack covers: the master
// copies (and their pooled buffers) return to the pool, and frames that
// needed at least one retransmission record their full first-send→ack
// latency.
func deliverAck(arg any) {
	m := arg.(*Msg)
	net := m.net
	snd := net.eps[m.Dst]
	from, ack := m.Src, m.linkSeq
	net.Recycle(m)
	if snd.tx == nil {
		return
	}
	tx := &snd.tx[from]
	now := net.engine.Now()
	for f := tx.head; f != nil && f.seq < ack; f = tx.head {
		tx.head = f.next
		if f.attempts > 1 {
			snd.Stats.RetransmitLatency.ObserveTime(now - f.sent)
		}
		net.Recycle(f.m)
		f.m = nil
	}
}

// frameTimeout fires when a frame's retransmission timer expires. On an
// acked frame it has nothing to retransmit, but it is still an event — the
// engine has no cancellation, and removing it would move the clock, the
// sampler's boundaries and the profiler's records — and it is the frame's
// last reference: the frame goes back to the free list. A live frame doubles
// its timeout, bounded by rtoCap, and goes back on the wire, which arms the
// next timer. With the critical-path profiler on, the retransmission chains
// from the record of the timer that provoked it.
func frameTimeout(arg any) {
	f := arg.(*frame)
	if ct := f.net.crit; ct != nil {
		ct.SetContext(f.timerRec)
		f.timeout()
		ct.ClearContext()
		return
	}
	f.timeout()
}

func (f *frame) timeout() {
	net := f.net
	if f.m == nil { // acked
		net.putFrame(f)
		return
	}
	ep := net.eps[f.src]
	ep.Stats.Timeouts++
	ep.Stats.Retransmits++
	if tr := net.tracer; tr != nil {
		tr.Instant(f.src, trace.CatNet, "retx",
			trace.A("dst", int64(f.dst)), trace.A("seq", int64(f.seq)),
			trace.A("attempt", int64(f.attempts)))
	}
	if f.rto *= 2; f.rto > f.rtoCap {
		f.rto = f.rtoCap
	}
	ep.transmit(f)
}

// UnackedLink describes one directed link that still holds frames the
// receiver has not acknowledged.
type UnackedLink struct {
	Src, Dst   int
	Frames     int      // frames sent and not yet acked
	OldestSent sim.Time // first transmission of the oldest of them
	Attempts   int      // transmissions of the oldest so far
}

// UnackedLinks lists the links with unacknowledged frames, ordered by source
// then destination: what a run that ran out of virtual time was still
// retransmitting into. Empty on the fast path.
func (n *Network) UnackedLinks() []UnackedLink {
	var out []UnackedLink
	for _, ep := range n.eps {
		for dst := range ep.tx {
			head := ep.tx[dst].head
			if head == nil {
				continue
			}
			l := UnackedLink{Src: ep.id, Dst: dst, OldestSent: head.sent, Attempts: head.attempts}
			for f := head; f != nil; f = f.next {
				l.Frames++
			}
			out = append(out, l)
		}
	}
	return out
}
