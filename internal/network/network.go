// Package network models the Myrinet message layer between simulated nodes.
//
// Messages carry protocol payloads between endpoints. Delivery time comes
// from the timing model's one-way latency (calibrated to the paper's
// microbenchmark). Each endpoint services incoming messages serially on the
// node's own processor — as on the real testbed, where all protocol
// processing occurs on the faulting/receiving host CPU. When the
// application is executing user code, servicing first waits for the
// notification mechanism (backedge polling or a Solaris-signal interrupt)
// and the service time is stolen from the application thread.
//
// Messages and their data buffers are recycled across runs: Send copies the
// caller's Msg (typically a stack-allocated literal) into a free-listed
// message, and the message returns to the free list after its handler runs
// unless the handler called Retain. Steady-state traffic therefore costs
// zero allocations. Close hands the free lists whole to the next network,
// and gives the endpoint slab and the link table's pages back to their
// pools, so a run after the first builds its network out of the last one's.
package network

import (
	"fmt"

	"dsmsim/internal/critpath"
	"dsmsim/internal/faults"
	"dsmsim/internal/mem"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
	"dsmsim/internal/timing"
	"dsmsim/internal/trace"
)

// Notify selects the message-arrival notification mechanism (§5.4).
type Notify int

const (
	// Polling: applications check a cachable flag on control-flow
	// backedges; cheap, but dilates computation.
	Polling Notify = iota
	// Interrupt: the LANai raises a hardware interrupt, delivered as a
	// Unix signal (~70 µs) while user code runs.
	Interrupt
)

func (n Notify) String() string {
	if n == Polling {
		return "polling"
	}
	return "interrupt"
}

// Msg is one protocol message.
//
// Small protocol bodies travel in the inline A/B/Flag fields and block
// contents in Data — none of which allocate. Payload remains for the rare
// structured bodies (vector clocks, write intervals, diffs); boxing those
// into any is the only per-message allocation left, on paths that allocate
// the body anyway.
type Msg struct {
	Src, Dst int
	Kind     int // protocol-defined discriminator
	Block    int // block the message concerns, -1 if none

	A, B    int64  // small protocol-defined scalars (node ids, versions)
	Flag    bool   // protocol-defined boolean
	Data    []byte // block contents / raw bytes; see AllocData
	Payload any    // protocol-defined structured body

	// Bytes is the payload wire size, excluding the fixed header.
	Bytes int

	// DataPooled marks Data as owned by the network's buffer pool (see
	// AllocData); it is recycled when the message is.
	DataPooled bool

	net      *Network
	retained bool
	sent     sim.Time // when Send was called (end-to-end latency origin)
	arrived  sim.Time
	linkSeq  uint64 // ARQ sequence number / cumulative ack (fault path only)
	crit     int32  // critical-path record of the delivering transit (profiler only)
}

// Retain keeps the message (and its Data) alive past the handler return
// that would otherwise recycle it. The holder should hand the message back
// with Network.Recycle once done, or simply drop it to the garbage
// collector.
func (m *Msg) Retain() { m.retained = true }

// SetCritContext parks a critical-path event context on a retained message
// whose handling is deferred to a later event; CritContext reads it back.
// The slot is the delivering transit's record, dead once service started.
func (m *Msg) SetCritContext(rec int32) { m.crit = rec }

// CritContext returns the context parked by SetCritContext.
func (m *Msg) CritContext() int32 { return m.crit }

// Host is the node-side view the endpoint needs for cycle stealing.
type Host interface {
	// Computing reports whether the application thread is executing user
	// code (as opposed to being blocked inside the DSM runtime).
	Computing() bool
	// Steal charges protocol service time to the application thread,
	// extending its current computation.
	Steal(cost sim.Time)
}

// Handler services one message; it runs after the message's service cost
// has elapsed and may send further messages. The message is recycled when
// the handler returns unless it called m.Retain().
type Handler func(m *Msg)

// CostFunc returns the processor occupancy needed to service a message.
type CostFunc func(m *Msg) sim.Time

// Traffic is an endpoint's message counters — or, from Network.Traffic,
// every endpoint's summed.
type Traffic struct {
	MsgsSent  int64
	BytesSent int64 // payload + header, i.e. wire bytes

	// Link-layer reliability counters, nonzero only on the ARQ path (a
	// wire-active fault plan). Sender side: Retransmits data frames resent
	// after a timeout, Timeouts timer expirations, WireDrops transmissions
	// (frames and acks) lost, cut or deliberately duplicated on the wire.
	// Receiver side: Duplicates frames discarded by sequence-number dedup,
	// AcksSent cumulative acknowledgements generated.
	Retransmits int64
	Timeouts    int64
	WireDrops   int64
	Duplicates  int64
	AcksSent    int64
}

// Stats accumulates per-endpoint traffic counters and distributions.
type Stats struct {
	Traffic

	// Latency is the distribution of end-to-end message latency at this
	// receiving endpoint: send call → service start, so it includes wire
	// time, FIFO queueing, notification wait and holdoff.
	Latency stats.Histogram

	// RetransmitLatency is the first-send→ack latency distribution of
	// frames that needed at least one retransmission — the price of each
	// loss the ARQ layer absorbed.
	RetransmitLatency stats.Histogram
}

// Endpoint is one node's network interface.
type Endpoint struct {
	id   int
	net  *Network
	host Host

	handler Handler
	cost    CostFunc

	// queue[qhead:] holds the messages awaiting service; popping advances
	// qhead so the backing array is reused instead of reallocated.
	queue        []*Msg
	qhead        int
	busyUntil    sim.Time
	holdoffUntil sim.Time
	svcPending   bool
	svcAt        sim.Time // service start of the in-flight message

	// ARQ per-link state (fault path only; see arq.go). tx is indexed by
	// destination, rx by source; both allocate at the first faulty send or
	// arrival.
	tx []linkTx
	rx []linkRx

	Stats Stats
}

// Network connects n endpoints through the latency model.
type Network struct {
	engine *sim.Engine
	model  *timing.Model
	notify Notify
	eps    []Endpoint // drawn from endpointSlabs
	links  linkTable  // per-link FIFO clamps of the fast path
	free   freeLists

	// parked holds the ARQ arrivals of every link that are ahead of a gap
	// in their link's sequence, in no particular order (see linkRx).
	parked []*Msg

	// tracer, when non-nil, receives one structured event per message
	// send, delivery and service, with virtual timestamps. Deterministic
	// like everything else, so traces diff cleanly between runs.
	tracer *trace.Tracer

	// faults, when non-nil, is a wire-active fault injector: cross-node
	// sends take the ARQ path (see arq.go) instead of the reliable-fabric
	// fast path. Nil for every fault-free run. pendingFaults holds a
	// StartAtBarrier injector until core activates it (ActivateFaults), so
	// the Send fast path stays a single nil check.
	faults        *faults.Injector
	pendingFaults *faults.Injector
	ackWire       sim.Time // one-way latency of an ack; set when faults go live
	rtoPad        sim.Time // 2×MaxJitter + rtoSlack, likewise

	// crit, when non-nil, is the critical-path tracker: every committed
	// transit, service occupancy and ARQ event records its dependency
	// edge. Observational only, nil-guarded like the tracer.
	crit *critpath.Tracker

	// scale, when non-nil, is a what-if cost rescaling applied to wire
	// latencies and service costs as they are charged (the re-simulation
	// side of the critical-path what-if analyzer).
	scale *critpath.Scale
}

// SetTracer attaches the structured event tracer (nil disables). It
// replaces the old ad-hoc fprintf trace; the deterministic line format is
// available through the tracer's line sink.
func (n *Network) SetTracer(t *trace.Tracer) { n.tracer = t }

// SetCrit attaches the critical-path tracker (nil disables).
func (n *Network) SetCrit(t *critpath.Tracker) { n.crit = t }

// SetScale applies a what-if cost rescaling to the timing charged for
// wire transit and message service (nil disables).
func (n *Network) SetScale(s *critpath.Scale) { n.scale = s }

// freeLists are a network's free messages, data buffers and ARQ frames
// (intrusive through frame.next; see arq.go). Single-threaded like the
// engine, so plain slices and a plain list suffice.
type freeLists struct {
	msgs   []*Msg
	bufs   [][]byte
	frames *frame
}

// What a network draws for its run and Close gives back: the endpoint slab,
// all-zero like every mem.Pool buffer, and the free lists, whole.
var (
	endpointSlabs = mem.NewPool[Endpoint]()
	freeBundles   = mem.NewKept[freeLists]()
)

// New creates a network of n endpoints. Handlers are attached later with
// Bind, before any traffic flows.
func New(engine *sim.Engine, model *timing.Model, notify Notify, n int) *Network {
	nw := &Network{engine: engine, model: model, notify: notify, eps: endpointSlabs.Get(n),
		links: linkTable{nodes: n, pooled: true}, free: freeBundles.Get()}
	for i := range nw.eps {
		nw.eps[i].id, nw.eps[i].net = i, nw
	}
	return nw
}

// closeHook, when non-nil, sees every data buffer Close hands on, whole.
var closeHook func(buf []byte)

// SetCloseHook is for tests: until restore is called, fn sees every data
// buffer a closing network hands to the next one, over its whole capacity,
// and may write it — poisoning what AllocData will hand out as "contents
// undefined". Set it before any run starts and restore it after every run
// ended.
func SetCloseHook(fn func(buf []byte)) (restore func()) {
	old := closeHook
	closeHook = fn
	return func() { closeHook = old }
}

// Close gives back what the network drew: the endpoint slab and the link
// table's pages, cleared, to their pools, and the free lists whole, for the
// next network to draw. Call it once the engine has stopped and every
// counter the run reports has been read. The network is empty afterwards,
// and closing it again, or a nil one, does nothing: a stale use indexes a
// nil slice instead of another run's endpoints.
func (n *Network) Close() {
	if n == nil || n.eps == nil {
		return
	}
	clear(n.eps)
	endpointSlabs.Put(n.eps)
	n.links.release()
	if closeHook != nil {
		for _, b := range n.free.bufs {
			closeHook(b[:cap(b)])
		}
	}
	freeBundles.Put(n.free)
	*n = Network{}
}

// Notify returns the configured notification mechanism.
func (n *Network) Notify() Notify { return n.notify }

// Endpoint returns node id's endpoint.
func (n *Network) Endpoint(id int) *Endpoint { return &n.eps[id] }

// Size returns the number of endpoints.
func (n *Network) Size() int { return len(n.eps) }

// Traffic returns every endpoint's counters summed: the one place the
// machine-wide totals are added up.
func (n *Network) Traffic() Traffic {
	var t Traffic
	for i := range n.eps {
		s := &n.eps[i].Stats.Traffic
		t.MsgsSent += s.MsgsSent
		t.BytesSent += s.BytesSent
		t.Retransmits += s.Retransmits
		t.Timeouts += s.Timeouts
		t.WireDrops += s.WireDrops
		t.Duplicates += s.Duplicates
		t.AcksSent += s.AcksSent
	}
	return t
}

// AllocData returns a size-byte buffer from the network's free list. Its
// contents are undefined: whatever an earlier message of this run or of an
// earlier run (Close hands the free lists on) left there. Every caller
// therefore overwrites all size bytes before anything reads them — today
// proto.Env.SendBlock, sendReliable and wireCopy, each with one copy of the
// whole length. Attach the buffer to an outgoing message's Data with
// DataPooled set and it returns to the free list when the message is
// recycled.
func (n *Network) AllocData(size int) []byte {
	if k := len(n.free.bufs); k > 0 {
		d := n.free.bufs[k-1]
		n.free.bufs = n.free.bufs[:k-1]
		if cap(d) >= size {
			return d[:size]
		}
	}
	return make([]byte, size)
}

// Recycle returns a retained message — and its pooled data buffer, if any —
// to the free lists. The caller must not touch the message afterwards.
func (n *Network) Recycle(m *Msg) {
	if m.DataPooled && m.Data != nil {
		n.free.bufs = append(n.free.bufs, m.Data)
	}
	*m = Msg{}
	n.free.msgs = append(n.free.msgs, m)
}

// Release recycles a message after hand-dispatching its handler outside
// the normal service path (e.g. a protocol draining a wait queue), with the
// same retention contract as the service path: if the handler called Retain
// the message survives, otherwise it returns to the pool.
func (n *Network) Release(m *Msg) { n.release(m) }

// getMsg pops a pooled message, or allocates when the pool is dry.
func (n *Network) getMsg() *Msg {
	if k := len(n.free.msgs); k > 0 {
		m := n.free.msgs[k-1]
		n.free.msgs = n.free.msgs[:k-1]
		return m
	}
	return new(Msg)
}

// release recycles a message after its handler ran, unless retained.
func (n *Network) release(m *Msg) {
	if m.retained {
		m.retained = false
		return
	}
	n.Recycle(m)
}

// Bind attaches the host, message handler and service-cost function to an
// endpoint. It must be called once per endpoint before traffic flows.
func (ep *Endpoint) Bind(host Host, cost CostFunc, handler Handler) {
	if ep.handler != nil {
		panic(fmt.Sprintf("network: endpoint %d bound twice", ep.id))
	}
	ep.host, ep.cost, ep.handler = host, cost, handler
}

// ID returns the endpoint's node id.
func (ep *Endpoint) ID() int { return ep.id }

// Send transmits a copy of m to m.Dst; the caller's Msg (typically a stack
// literal) is not referenced after Send returns. It may be called from proc
// context or from a handler. Self-sends are delivered through the same path
// (used by managers that happen to live on the requesting node) with zero
// wire time.
func (ep *Endpoint) Send(m *Msg) {
	if m.Src != ep.id {
		panic(fmt.Sprintf("network: endpoint %d sending message with Src %d", ep.id, m.Src))
	}
	if m.Dst < 0 || m.Dst >= len(ep.net.eps) {
		panic(fmt.Sprintf("network: bad destination %d", m.Dst))
	}
	net := ep.net
	model := net.model
	ep.Stats.MsgsSent++
	ep.Stats.BytesSent += int64(m.Bytes + model.MsgHeader)
	if tr := net.tracer; tr != nil {
		tr.Instant(ep.id, trace.CatNet, "send",
			trace.A("dst", int64(m.Dst)), trace.A("kind", int64(m.Kind)),
			trace.A("block", int64(m.Block)), trace.A("bytes", int64(m.Bytes)))
	}
	if net.faults != nil && m.Dst != ep.id {
		// An unreliable wire: hand the message to the ARQ layer. Self-sends
		// never touch the wire and keep the fast path even under faults.
		ep.sendReliable(m)
		return
	}
	var wire sim.Time
	if m.Dst != ep.id {
		wire = model.OneWayLatency(m.Bytes + model.MsgHeader)
		if sc := net.scale; sc != nil {
			wire = sc.Wire(m.Kind, wire)
		}
	}
	at := net.engine.Now() + model.SendOverhead + wire
	last := net.links.slot(ep.id, m.Dst)
	if at < *last {
		at = *last // FIFO per src→dst pair
	}
	*last = at
	pm := net.getMsg()
	*pm = *m
	pm.net = net
	pm.retained = false
	pm.sent = net.engine.Now()
	if ct := net.crit; ct != nil {
		pm.crit = ct.Xmit(ep.id, m.Dst, m.Kind, m.Block, pm.sent, at, wire)
	}
	net.engine.ScheduleArg(at, deliverMsg, pm)
}

// deliverMsg is the arrival event: enqueue at the destination and try to
// start service. Package-level with the message as argument so scheduling
// it never allocates.
func deliverMsg(arg any) {
	m := arg.(*Msg)
	net := m.net
	dst := &net.eps[m.Dst]
	m.arrived = net.engine.Now()
	if tr := net.tracer; tr != nil {
		tr.Instant(dst.id, trace.CatNet, "recv",
			trace.A("src", int64(m.Src)), trace.A("kind", int64(m.Kind)),
			trace.A("block", int64(m.Block)))
	}
	dst.queue = append(dst.queue, m)
	dst.trySvc()
}

// Holdoff opens a forward-progress window after the runtime hands an
// access to the application. Under the interrupt mechanism this is the
// §5.4 interrupt-disable window (~the timer resolution), which damps the
// SC ping-pong effect. Under polling it is one backedge interval: on the
// real testbed an invalidation can be serviced no sooner than the next
// poll point, which guarantees the application uses a freshly granted
// block at least once before losing it again.
func (ep *Endpoint) Holdoff() {
	d := ep.net.model.PollDelay
	if ep.net.notify == Interrupt {
		d = ep.net.model.InterruptHoldoff
	}
	ep.HoldoffFor(d)
}

// HoldoffFor opens a forward-progress window of an explicit length. The
// access layer escalates the window under sustained contention: a
// multi-block access needs every covered block simultaneously valid, and
// without escalation two such accesses can steal each other's blocks
// forever.
func (ep *Endpoint) HoldoffFor(d sim.Time) {
	t := ep.net.engine.Now() + d
	if t > ep.holdoffUntil {
		ep.holdoffUntil = t
	}
}

// trySvc schedules service of the head-of-queue message if none is
// pending. Service happens in two stages: a start event (which re-checks
// the forward-progress holdoff, since a fault completing in the meantime
// may have opened a new window) and a completion event after the service
// cost has elapsed. Both stages are package-level functions taking the
// endpoint, so a full deliver→serve cycle schedules without allocating;
// the head message stays queue[qhead] until the completion event pops it,
// which is what lets the stages find it again.
func (ep *Endpoint) trySvc() {
	if ep.svcPending || ep.qhead == len(ep.queue) {
		return
	}
	eng := ep.net.engine
	model := ep.net.model
	m := ep.queue[ep.qhead]

	ready := m.arrived
	if ep.host.Computing() {
		// The app is in user code: wait for notification.
		if ep.net.notify == Polling {
			ready += model.PollDelay + model.PollCheck
		} else {
			ready += model.InterruptDelivery
		}
	}
	if ep.holdoffUntil > ready {
		ready = ep.holdoffUntil
	}
	start := eng.Now()
	if ready > start {
		start = ready
	}
	if ep.busyUntil > start {
		start = ep.busyUntil
	}
	ep.svcPending = true
	eng.ScheduleArg(start, svcStart, ep)
}

// svcStart is the service-start event for an endpoint's head-of-queue
// message: re-check the holdoff window, charge the service cost, and
// schedule completion.
func svcStart(arg any) {
	ep := arg.(*Endpoint)
	eng := ep.net.engine
	if ep.holdoffUntil > eng.Now() {
		// A new forward-progress window opened while this service was
		// queued: start over so the application gets to use its freshly
		// granted access.
		ep.svcPending = false
		ep.trySvc()
		return
	}
	m := ep.queue[ep.qhead]
	cost := ep.net.model.HandlerCost + ep.cost(m)
	if sc := ep.net.scale; sc != nil {
		cost = sc.SvcCost(m.Kind, cost)
	}
	ep.svcAt = eng.Now()
	done := ep.svcAt + cost
	ep.busyUntil = done
	ep.Stats.Latency.ObserveTime(ep.svcAt - m.sent)
	if ep.host.Computing() {
		ep.host.Steal(cost)
	}
	if ct := ep.net.crit; ct != nil {
		ct.SvcStart(ep.id, m.Kind, m.Block, m.crit, m.arrived, ep.svcAt, cost)
	}
	eng.ScheduleArg(done, svcDone, ep)
}

// svcDone is the service-completion event: pop the message, run the
// handler, recycle the message (unless retained) and service the next.
func svcDone(arg any) {
	ep := arg.(*Endpoint)
	ep.svcPending = false
	m := ep.queue[ep.qhead]
	ep.queue[ep.qhead] = nil
	ep.qhead++
	if ep.qhead == len(ep.queue) {
		ep.queue = ep.queue[:0]
		ep.qhead = 0
	}
	if tr := ep.net.tracer; tr != nil {
		tr.Span(ep.id, trace.CatNet, "serve", ep.svcAt,
			trace.A("src", int64(m.Src)), trace.A("kind", int64(m.Kind)),
			trace.A("block", int64(m.Block)), trace.A("wait", int64(ep.svcAt-m.arrived)))
	}
	if ct := ep.net.crit; ct != nil {
		// Handler context: sends and proc wakeups inside the handler (and
		// inside any hand-dispatched handlers it drains through Release)
		// chain from this service's record.
		ct.BeginHandler(ep.id)
		ep.handler(m)
		ct.EndHandler()
	} else {
		ep.handler(m)
	}
	ep.net.release(m)
	ep.trySvc()
}

// QueueLen reports the number of messages awaiting service (for tests).
func (ep *Endpoint) QueueLen() int { return len(ep.queue) - ep.qhead }

// EndpointState is the checkpointable state of one endpoint at a quiescent
// cut: no message queued or in service, no ARQ state (the cut is taken in a
// fault-free prefix). What remains is pure timing memory — when the NI
// processor frees up, the open holdoff window — plus the traffic counters
// (Histograms are value arrays, so the struct copy is deep). The FIFO
// arrival clamps are the network's (CaptureLinks).
type EndpointState struct {
	BusyUntil    sim.Time
	HoldoffUntil sim.Time
	SvcAt        sim.Time
	Stats        Stats
}

// CaptureState snapshots the endpoint. It fails if the endpoint is not
// quiescent — a queued or in-service message, or live ARQ link state —
// since those hold pooled pointers no fork could share.
func (ep *Endpoint) CaptureState() (EndpointState, error) {
	if ep.QueueLen() != 0 || ep.svcPending {
		return EndpointState{}, fmt.Errorf("network: endpoint %d not quiescent (%d queued, pending=%v)",
			ep.id, ep.QueueLen(), ep.svcPending)
	}
	if ep.tx != nil || ep.rx != nil {
		return EndpointState{}, fmt.Errorf("network: endpoint %d has live ARQ state", ep.id)
	}
	return EndpointState{
		BusyUntil:    ep.busyUntil,
		HoldoffUntil: ep.holdoffUntil,
		SvcAt:        ep.svcAt,
		Stats:        ep.Stats,
	}, nil
}

// RestoreState applies a captured snapshot to a freshly built endpoint.
func (ep *Endpoint) RestoreState(st EndpointState) {
	ep.busyUntil = st.BusyUntil
	ep.holdoffUntil = st.HoldoffUntil
	ep.svcAt = st.SvcAt
	ep.Stats = st.Stats
}
