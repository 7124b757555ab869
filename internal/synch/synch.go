// Package synch implements the message-based synchronization layer: a
// distributed lock manager and a centralized barrier.
//
// Locks follow the LRC-style flow (§2.2–2.3): the acquirer sends its vector
// clock to the lock's home; the home forwards the grant duty to the last
// releaser, which replies directly with the write notices the acquirer has
// not yet seen. Under SC the home grants directly with no consistency
// payload — the paper notes synchronization is much cheaper under SC
// because it involves no protocol activity.
package synch

import (
	"fmt"
	"math"
	"sync/atomic"

	"dsmsim/internal/critpath"
	"dsmsim/internal/digest"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
	"dsmsim/internal/trace"
)

// Message kinds, laid out as critpath declares (all below
// proto.ProtoKindBase): the lock kinds, then the barrier kinds from
// critpath.LockKinds, so a lock kind added without raising the count
// repeats kBarArrive, and Handle's switch, which serves every kind, no
// longer compiles.
const (
	kLockAcquire = iota
	kLockGrantReq
	kLockGrant
	kLockRelease
)

const (
	kBarArrive = critpath.LockKinds + iota
	kBarRelease
)

// Wire encoding on network.Msg's inline fields:
//
//	kLockAcquire:  A = lock; the acquirer's clock is charged on the wire
//	               (not under SC) and read in place (see Acquire)
//	kLockRelease:  A = lock, B = releaser's logical timestamp (carrier only)
//	kLockGrantReq: A = lock, B = acquirer; the acquirer's clock is charged
//	               on the wire and read in place
//	kLockGrant:    A = lock, B = last release's logical timestamp (carrier
//	               only), Payload = *notices from the free list, or nil
//	               (direct grant, no notices)
//	kBarArrive:    B = arriver's logical timestamp (carrier only); the
//	               arriver's clock is charged on the wire and read in place
//	               (see Barrier)
//	kBarRelease:   B = max arrival timestamp (carrier only),
//	               Payload = *notices or nil (SC: no notices to carry)
//
// No clock is copied onto the wire: a clock charged on a message is one
// its owner cannot change before the message has been handled, so the
// handler reads it where it lives.
// Under a proto.TimestampCarrier protocol (tlc) the B fields above carry
// a scalar logical timestamp, 8 extra bytes per message; for every other
// protocol they stay zero and the wire sizes are unchanged.

// notices is the consistency payload of a lock grant or barrier release:
// the intervals of the shared log in (at, to], carried by reference. The
// log is append-only and to was copied off a live clock at send time, so
// every interval in range is already published and immutable — the receiver
// walks exactly the entries the sender counted, however much later it
// handles the message. The lower bound at is the receiver's live clock,
// read in place: a node blocked in an acquire or a barrier cannot change
// it before it has handled this message.
type notices struct {
	at    *proto.Clock
	to    proto.VC
	count int // write notices in range, counted once at send time
	// barrier marks a barrier release: the receiver rebases its clock on
	// to instead of merging it. shared is then the episode's one list of
	// the non-empty intervals in (previous release's clock, to], node then
	// index ascending. No arriver's clock is below the previous release's,
	// so the list holds everything any of them lacks; all N releases point
	// at it and each receiver filters it by at, instead of probing the log
	// once per node. It only saves work: the log walk yields the same
	// notices in the same order.
	barrier bool
	shared  []proto.Interval
}

// each calls fn with the intervals in (at, to] as contiguous runs, node
// ascending and index ascending within a node.
func (d *notices) each(log *proto.Log, fn func([]proto.Interval)) {
	if !d.barrier {
		for node, upTo := range d.to {
			if ivs := log.Between(node, d.at.Get(node), upTo); len(ivs) > 0 {
				fn(ivs)
			}
		}
		return
	}
	run := 0 // start of the current run of intervals at has not seen
	for k := range d.shared {
		if d.at.Seen(&d.shared[k]) {
			if run < k {
				fn(d.shared[run:k])
			}
			run = k + 1
		}
	}
	if run < len(d.shared) {
		fn(d.shared[run:])
	}
}

// tally sets count from the intervals in range.
func (d *notices) tally(log *proto.Log) {
	d.count = 0
	d.each(log, func(ivs []proto.Interval) {
		for _, iv := range ivs {
			d.count += len(iv.Notices)
		}
	})
}

// total is the notice count of a possibly absent payload.
func (d *notices) total() int64 {
	if d == nil {
		return 0
	}
	return int64(d.count)
}

type lockState struct {
	held         bool
	holder       int
	lastReleaser int
	lastTS       int64 // logical timestamp of the last release (carrier protocols)
	queue        []int // nodes waiting, in arrival order
}

// Sync is the synchronization manager for one machine run.
type Sync struct {
	env   *proto.Env
	proto proto.Protocol
	// ts is non-nil when the protocol carries scalar logical timestamps
	// at synchronization (tlc); every timestamp hook below is gated on
	// it, so other protocols' runs are byte-identical to before.
	ts proto.TimestampCarrier

	State // the locks and the barrier, as a checkpoint captures them

	// rel and shared are the barrier releases' payloads and their one
	// interval list, rebuilt in place at every episode: every node handles
	// release k before it can arrive at k+1, and no ApplyNotices keeps its
	// intervals, so nothing points into them by then.
	rel    []notices
	shared []proto.Interval
	// grants is the free list of lock grant payloads. A payload goes back
	// at its receiver's completeAcquire: the ARQ layer delivers a message
	// once, and a wire copy still holding the pointer is discarded as a
	// duplicate without being read.
	grants []*notices

	// OnBarrierFull, when set, fires in engine context the instant the
	// last node arrives at a barrier — after the epoch counter advances,
	// before any release message is sent. This is the simulator's one
	// quiescent cut point: every proc is blocked in the barrier and the
	// event queue is empty. Core uses it to arm StartAtBarrier fault plans
	// and to capture checkpoints. Returning true suppresses the release
	// (the run is being cut here); the caller then stops the engine.
	OnBarrierFull func(epoch int) bool
}

// New creates the manager. The protocol must be set with SetProtocol before
// the first synchronization operation.
func New(env *proto.Env) *Sync {
	return &Sync{env: env, State: State{locks: make(map[int]*lockState)}}
}

// SetProtocol attaches the coherence protocol whose hooks the manager calls.
func (s *Sync) SetProtocol(p proto.Protocol) {
	s.proto = p
	s.ts, _ = p.(proto.TimestampCarrier)
}

// QueuedWaiters returns how many nodes are currently queued behind held
// locks, machine-wide. Purely observational — a sum over the lock table,
// so map iteration order cannot leak into the value — and read by the
// metrics sampler as the lock-queue-depth gauge.
func (s *Sync) QueuedWaiters() int64 {
	var n int64
	for _, st := range s.locks {
		n += int64(len(st.queue))
	}
	return n
}

// lockHome returns the node managing the given lock.
func (s *Sync) lockHome(lock int) int { return lock % s.env.Nodes() }

func (s *Sync) vcBytes() int { return s.env.Nodes() * s.env.Model.VCEntryBytes }

// noticeBytes is the wire size of a clock plus count write notices.
func (s *Sync) noticeBytes(count int) int {
	return s.vcBytes() + count*s.env.Model.WriteNoticeBytes
}

// Acquire obtains the lock for node. Proc context; blocks until granted.
// The request is charged the node's clock on the wire but carries no copy
// of it: only the node's own interval close and completed acquires write
// env.VCs[node], and neither can happen before the grant, so the last
// releaser reads the clock where it lives.
func (s *Sync) Acquire(node, lock int) {
	s.env.Stats[node].LockAcquires++
	bytes := 8
	if s.env.Log != nil {
		bytes += s.vcBytes()
	}
	s.env.Send(node, &network.Msg{
		Dst: s.lockHome(lock), Kind: kLockAcquire, Block: -1,
		A: int64(lock), Bytes: bytes,
	})
	s.env.Procs[node].BlockID("lock acquire", lock)
}

// Release releases the lock held by node. Proc context. It closes the
// node's interval first (PreRelease may block, e.g. HLRC's diff flush).
func (s *Sync) Release(node, lock int) {
	s.closeInterval(node)
	m := &network.Msg{
		Dst: s.lockHome(lock), Kind: kLockRelease, Block: -1,
		A: int64(lock), Bytes: 8,
	}
	if s.ts != nil {
		m.B = s.ts.ReleaseTS(node)
		m.Bytes += 8
	}
	s.env.Send(node, m)
}

// closeInterval flushes node's pending writes and publishes its notices as
// a new interval (no-op under SC).
func (s *Sync) closeInterval(node int) {
	notices := s.proto.PreRelease(node)
	if s.env.Log == nil {
		return
	}
	idx := s.env.Log.Publish(node, notices)
	s.env.VCs[node].Tick(idx)
	s.env.Stats[node].WriteNoticesSent += int64(len(notices))
	if tr := s.env.Tracer; tr != nil {
		tr.Instant(node, trace.CatSynch, "interval",
			trace.A("idx", int64(idx)), trace.A("notices", int64(len(notices))))
	}
}

// Barrier enters the global barrier. Proc context; blocks until all nodes
// arrive and the master releases. The arrival is charged the node's clock
// on the wire but carries no copy of it: only the node's own handlers
// write env.VCs[node], and until the release none of them does, so the
// master reads the clock where it lives.
func (s *Sync) Barrier(node int) {
	s.env.Stats[node].BarrierEntries++
	s.closeInterval(node)
	bytes := 8
	if s.env.Log != nil {
		bytes += s.vcBytes()
	}
	m := &network.Msg{Dst: 0, Kind: kBarArrive, Block: -1, Bytes: bytes}
	if s.ts != nil {
		m.B = s.ts.ReleaseTS(node)
		m.Bytes += 8
	}
	s.env.Send(node, m)
	s.env.Procs[node].Block("barrier")
}

// ServiceCost returns the processor occupancy for servicing m.
func (s *Sync) ServiceCost(m *network.Msg) sim.Time {
	model := s.env.Model
	d, _ := m.Payload.(*notices) // grants and barrier releases only
	apply := sim.Time(d.total()) * model.NoticeApply
	switch m.Kind {
	case kBarArrive, kBarRelease:
		return model.BarrierHandling + apply
	default:
		return model.LockHandling + apply
	}
}

// Handle services a synchronization message (engine context).
func (s *Sync) Handle(m *network.Msg) {
	switch m.Kind {
	case kLockAcquire:
		s.handleAcquire(m)
	case kLockRelease:
		s.handleRelease(m)
	case kLockGrantReq:
		s.handleGrantReq(m)
	case kLockGrant:
		s.handleGrant(m)
	case kBarArrive:
		s.handleBarArrive(m)
	case kBarRelease:
		s.handleBarRelease(m)
	default:
		panic(fmt.Sprintf("synch: unknown message kind %d", m.Kind))
	}
}

func (s *Sync) lock(id int) *lockState {
	st := s.locks[id]
	if st == nil {
		st = &lockState{lastReleaser: -1}
		s.locks[id] = st
	}
	return st
}

func (s *Sync) handleAcquire(m *network.Msg) {
	lock := int(m.A)
	st := s.lock(lock)
	if st.held {
		st.queue = append(st.queue, m.Src)
		return
	}
	st.held = true
	st.holder = m.Src
	s.grantFrom(m.Dst, st, lock, m.Src)
}

func (s *Sync) handleRelease(m *network.Msg) {
	lock := int(m.A)
	st := s.lock(lock)
	if !st.held || st.holder != m.Src {
		panic(fmt.Sprintf("synch: release of lock %d by %d, holder %d held=%v", lock, m.Src, st.holder, st.held))
	}
	st.lastReleaser = m.Src
	if s.ts != nil {
		st.lastTS = m.B
	}
	if len(st.queue) == 0 {
		st.held = false
		return
	}
	st.holder = st.queue[0]
	// Pop by copy so the queue's array is reused: re-slicing would leak its
	// front and make every refill reallocate.
	st.queue = st.queue[:copy(st.queue, st.queue[1:])]
	s.grantFrom(m.Dst, st, lock, st.holder)
}

// grantFrom routes the grant for lock to acquirer: directly from the home
// when there is no consistency payload to compute, otherwise via the last
// releaser, which knows which write notices the acquirer is missing. A
// timestamp-carrier protocol always takes the direct two-hop path — the
// scalar release timestamp lives at the lock's home, so no third hop to
// the releaser is needed (the measurable lock-latency edge tlc has over
// the vector-clock protocols).
func (s *Sync) grantFrom(home int, st *lockState, lock, acquirer int) {
	if s.env.Log == nil || st.lastReleaser < 0 {
		m := &network.Msg{
			Dst: acquirer, Kind: kLockGrant, Block: -1,
			A: int64(lock), Bytes: 8,
		}
		if s.ts != nil {
			m.B = st.lastTS
			m.Bytes += 8
		}
		s.env.Send(home, m)
		return
	}
	s.env.Send(home, &network.Msg{
		Dst: st.lastReleaser, Kind: kLockGrantReq, Block: -1,
		A: int64(lock), B: int64(acquirer),
		Bytes: 8 + s.vcBytes(),
	})
}

// handleGrantReq runs at the last releaser, which knows which notices the
// acquirer lacks: those between the acquirer's clock, read in place (see
// Acquire), and its own, copied into a recycled payload.
func (s *Sync) handleGrantReq(m *network.Msg) {
	r := m.Dst
	d := s.getGrant()
	*d = notices{at: &s.env.VCs[int(m.B)], to: s.env.VCs[r].DenseInto(d.to)}
	d.tally(s.env.Log)
	s.env.Send(r, &network.Msg{
		Dst: int(m.B), Kind: kLockGrant, Block: -1,
		A: m.A, Payload: d, Bytes: 8 + s.noticeBytes(d.count),
	})
}

// getGrant pops a grant payload off the free list (or allocates one); the
// caller overwrites every field, keeping only to's storage.
func (s *Sync) getGrant() *notices {
	if k := len(s.grants); k > 0 {
		d := s.grants[k-1]
		s.grants = s.grants[:k-1]
		return d
	}
	return &notices{}
}

// putGrant returns an applied grant payload to the free list.
func (s *Sync) putGrant(d *notices) {
	if poisoned := grantPoison; poisoned != nil {
		poisoned.Add(1)
		for i := range d.to {
			d.to[i] = math.MaxInt32
		}
		d.at, d.count, d.shared = nil, -1<<30, nil
	}
	s.grants = append(s.grants, d)
}

// grantPoison, when non-nil, counts the grant payloads putGrant poisons.
var grantPoison *atomic.Int64

// PoisonGrants is for tests: until restore is called, every lock grant
// payload is overwritten with garbage as it returns to its free list — a
// nil lower bound, an upper bound past every interval, a negative count,
// no shared list — and poisoned counts them. A run whose bytes stay
// the same reads no payload after its grant was applied. Call it before
// any run starts and restore after every run ended.
func PoisonGrants() (poisoned func() int64, restore func()) {
	old, n := grantPoison, new(atomic.Int64)
	grantPoison = n
	return n.Load, func() { grantPoison = old }
}

func (s *Sync) handleGrant(m *network.Msg) {
	d, _ := m.Payload.(*notices)
	if tr := s.env.Tracer; tr != nil {
		tr.Instant(m.Dst, trace.CatSynch, "grant",
			trace.A("lock", m.A), trace.A("notices", d.total()))
	}
	s.completeAcquire(m.Dst, d, m.B)
}

// completeAcquire finishes node's lock acquire or barrier wait: it applies
// the write notices d ships (nil when the message carried none), advances
// node's clocks and wakes it.
func (s *Sync) completeAcquire(node int, d *notices, ts int64) {
	if d != nil {
		d.each(s.env.Log, func(ivs []proto.Interval) { s.proto.ApplyNotices(node, ivs) })
		s.env.Stats[node].WriteNoticesRecv += int64(d.count)
		if c := &s.env.VCs[node]; d.barrier {
			c.Rebase(d.to) // a barrier's merged clock dominates every arriver's
		} else {
			c.Merge(d.to)
			s.putGrant(d)
		}
	}
	if s.ts != nil {
		s.ts.AcquireTS(node, ts)
	}
	s.proto.OnAcquireComplete(node)
	s.env.Procs[node].Unblock()
}

func (s *Sync) handleBarArrive(m *network.Msg) {
	if s.ts != nil && m.B > s.barMaxTS {
		s.barMaxTS = m.B
	}
	s.barCount++
	if s.barCount < s.env.Nodes() {
		return
	}
	s.epoch++
	if s.OnBarrierFull != nil && s.OnBarrierFull(s.epoch) {
		return // cut here: the caller stops the engine, no release goes out
	}
	s.releaseBarrier()
}

// Epoch returns the number of completed global barriers.
func (s *Sync) Epoch() int { return s.epoch }

// ReleaseBarrier sends the pending barrier releases. It is exported for
// checkpoint restore: a forked run restores the all-arrived barrier state
// and replays the release exactly where the original run would have sent
// it, consuming the same event sequence numbers.
func (s *Sync) ReleaseBarrier() { s.releaseBarrier() }

// releaseBarrier releases every node. Called with barCount == Nodes: every
// node is blocked in the barrier and has handled the previous release.
func (s *Sync) releaseBarrier() {
	var rel []notices
	if s.env.Log != nil {
		rel = s.barrierNotices()
	}
	for i := 0; i < s.env.Nodes(); i++ {
		msg := network.Msg{Dst: i, Kind: kBarRelease, Block: -1, Bytes: 8}
		if rel != nil {
			msg.Payload = &rel[i]
			msg.Bytes += s.noticeBytes(rel[i].count)
		}
		if s.ts != nil {
			msg.B = s.barMaxTS
			msg.Bytes += 8
		}
		s.env.Send(0, &msg)
	}
	s.barCount = 0
	s.barMaxTS = 0
}

// barrierNotices merges the arrivers' clocks and builds the episode's N
// release payloads around one shared interval list, in s.rel and s.shared.
func (s *Sync) barrierNotices() []notices {
	clocks := s.env.VCs
	base, merged := proto.MergeClocks(clocks)
	shared := s.shared[:0] // typically one interval per node
	s.env.Log.Each(base, merged, func(ivs []proto.Interval) {
		for _, iv := range ivs {
			if len(iv.Notices) > 0 {
				shared = append(shared, iv)
			}
		}
	})
	s.shared = shared
	if len(s.rel) != len(clocks) {
		s.rel = make([]notices, len(clocks))
	}
	for i := range s.rel {
		s.rel[i] = notices{at: &clocks[i], to: merged, barrier: true, shared: shared}
		s.rel[i].tally(s.env.Log)
	}
	return s.rel
}

// State is the synchronization layer's checkpointable state: the lock
// table (held/holder/last-releaser plus the queued waiters),
// the all-arrived barrier state, and the epoch counter. The arrivers'
// clocks are the nodes' own (env.VCs), which the run snapshots too — base
// included, so a fork's first release cuts its interval list from the
// previous release's clock like any other. Opaque
// outside this package; reusable across any number of forks.
type State struct {
	locks map[int]*lockState

	// Barrier state (master is node 0).
	barCount int
	// barMaxTS is the running maximum of the arrival timestamps of the
	// barrier in progress (carrier protocols only).
	barMaxTS int64

	// epoch counts completed global barriers (1-based: it becomes 1 when
	// every node has arrived at the first barrier).
	epoch int
}

// CaptureState snapshots the manager.
func (s *Sync) CaptureState() *State { return digest.Clone(&s.State) }

// RestoreState applies a snapshot to a freshly built manager (copied, so
// the snapshot stays pristine). Follow with ReleaseBarrier to replay the
// release the cut suppressed.
func (s *Sync) RestoreState(st *State) { digest.Copy(&s.State, st) }

func (s *Sync) handleBarRelease(m *network.Msg) {
	d, _ := m.Payload.(*notices)
	if tr := s.env.Tracer; tr != nil {
		tr.Instant(m.Dst, trace.CatSynch, "bar-release", trace.A("notices", d.total()))
	}
	s.completeAcquire(m.Dst, d, m.B)
}
