package proto

import (
	"fmt"

	"dsmsim/internal/digest"
	"dsmsim/internal/network"
	"dsmsim/internal/trace"
)

// This file is the message path every protocol shares: a fault sends a
// request, the request is forwarded until it reaches the node that can
// serve it, that node grants a copy of the block, the requester installs
// it, and requests that arrive while a block is between owners wait and are
// retried. A protocol supplies its message kinds, its directory entry and
// the transitions; the helpers below own the contracts that are easy to get
// subtly wrong — pooled-buffer ownership, message retention, and the
// counters, trace events and critical-path marks that must move together.

// Forward re-sends request m, received at here, towards dst: the one place
// that counts a forward, traces it (key names dst in the event: "home" or
// "owner"), marks the transmit as a forwarding hop for the critical-path
// profiler, and copies the request's body into a fresh message.
func (e *Env) Forward(here, dst int, key string, m *network.Msg) {
	e.Stats[here].Forwards++
	if tr := e.Tracer; tr != nil {
		tr.Instant(here, trace.CatProto, "forward",
			trace.A("block", int64(m.Block)), trace.A(key, int64(dst)))
	}
	if ct := e.Crit; ct != nil {
		ct.MarkForward()
	}
	e.Send(here, &network.Msg{
		Dst: dst, Kind: m.Kind, Block: m.Block,
		A: m.A, B: m.B, Flag: m.Flag, Payload: m.Payload, Bytes: m.Bytes,
	})
}

// SendBlock sends m from src with a copy of src's current bytes of m.Block
// attached. The copy lives in a pooled buffer the network reclaims with the
// message. On entry m.Bytes is the size of the message's own fields; the
// block is added to it.
func (e *Env) SendBlock(src int, m *network.Msg) {
	sp := e.Spaces[src]
	m.Data = e.Net.AllocData(sp.BlockSize())
	copy(m.Data, sp.BlockData(m.Block))
	m.DataPooled = true
	m.Bytes += len(m.Data)
	e.Send(src, m)
}

// Install copies the block a grant or write-back carries into the receiving
// node's space and tells the sharing profiler the copy is complete and
// current. A message without data (an upgrade: the receiver's bytes are
// already current) installs nothing.
func (e *Env) Install(m *network.Msg) {
	if m.Data == nil {
		return
	}
	copy(e.Spaces[m.Dst].BlockData(m.Block), m.Data)
	if o := e.Prof; o != nil {
		o.Filled(m.Dst, m.Block)
	}
}

// ClaimHome makes requester the first-touch home of block. A claim is a
// mapping fault, not a coherence miss — the paper's fault tables exclude it
// (LU's write faults are zero) — so the fault the requester counted on its
// way here is taken back.
func (e *Env) ClaimHome(block, requester int, write bool) {
	if _, migrated := e.Homes.Claim(block, requester); migrated {
		e.Stats[requester].HomeMigrations++
	}
	if write {
		e.Stats[requester].WriteFaults--
	} else {
		e.Stats[requester].ReadFaults--
	}
}

// HomeImage returns the home copy of block b: the authoritative bytes once
// every exclusive copy has been pulled back. An unclaimed block still lives
// at its static home.
func (e *Env) HomeImage(b int) []byte {
	home := e.Homes.Home(b)
	if home < 0 {
		home = e.Homes.Static(b)
	}
	return e.Spaces[home].BlockData(b)
}

// PullBack copies block b from the node holding its exclusive copy (owner,
// -1 for none) into the home image, so HomeImage is final. Run end only: no
// cost is modelled.
func (e *Env) PullBack(b, owner int) {
	if owner >= 0 && e.Homes.Claimed(b) && owner != e.Homes.Home(b) {
		copy(e.HomeImage(b), e.Spaces[owner].BlockData(b))
	}
}

// Fault is a node's single outstanding fault.
type Fault struct {
	Block      int
	Write      bool
	BecameHome bool // set by the protocol when the grant made the node home
}

// Pending tracks each node's outstanding fault from the request to the
// message that resolves it. The records are live only while the node's proc
// is blocked in Request, so they are not part of a protocol's checkpoint.
type Pending struct {
	env           *Env
	key           string // how the fetch trace event names the destination
	reads, writes string // block reasons, shown in deadlock reports
	faults        []Fault
}

// NewPending returns the table for env's nodes, with the protocol's
// spellings of the fetch event's destination key and its two block reasons.
func NewPending(env *Env, key, readReason, writeReason string) *Pending {
	return &Pending{env: env, key: key, reads: readReason, writes: writeReason,
		faults: make([]Fault, env.Nodes())}
}

// Request records node's fault on m.Block, traces the fetch, sends m and
// blocks node's proc until Done. Proc context.
func (p *Pending) Request(node int, write bool, m *network.Msg) {
	p.faults[node] = Fault{Block: m.Block, Write: write}
	if tr := p.env.Tracer; tr != nil {
		tr.Instant(node, trace.CatProto, "fetch",
			trace.A("block", int64(m.Block)), trace.A("write", trace.Bool(write)),
			trace.A(p.key, int64(m.Dst)))
	}
	p.env.Send(node, m)
	reason := p.reads
	if write {
		reason = p.writes
	}
	p.env.Procs[node].BlockID(reason, m.Block)
}

// At returns node's fault record: the outstanding fault while the node is
// blocked in Request, and afterwards that fault as its resolving handler
// left it.
func (p *Pending) At(node int) *Fault { return &p.faults[node] }

// Done resumes node, whose fault on block the caller has just resolved. A
// grant for any other block is a protocol bug.
func (p *Pending) Done(node, block int) {
	if pb := p.faults[node].Block; pb != block {
		panic(fmt.Sprintf("proto: node %d completed block %d but its pending fault is on block %d", node, block, pb))
	}
	p.env.Procs[node].Unblock()
}

// Txns is a protocol's table of blocks in flight: a block has an entry
// while it is between stable states at the node that serialises requests
// for it — a home-side transaction collecting acknowledgements, or a grant
// of home- or ownership that has not reached its new holder yet. T is
// whatever the protocol needs to remember about the transaction. Requests
// that arrive for such a block are parked on its entry and retried, in
// arrival order, when it ends.
type Txns[T any] struct {
	env   *Env
	retry func(any) // runs one parked message; built once so deferring allocates nothing
	live  map[int]*txn[T]
	free  []*txn[T] // ended entries, kept with their queues' capacity
}

type txn[T any] struct {
	val   T
	waitq []*network.Msg
}

// NewTxns returns an empty table whose parked requests are retried through
// handle — the protocol's Handle, so a parked message is served as the kind
// it is.
func NewTxns[T any](env *Env, handle func(*network.Msg)) *Txns[T] {
	return &Txns[T]{env: env, live: make(map[int]*txn[T]), retry: func(arg any) {
		m := arg.(*network.Msg)
		if ct := env.Crit; ct != nil {
			ct.SetContext(m.CritContext())
			defer ct.ClearContext()
		}
		handle(m)
		env.Net.Release(m)
	}}
}

// Begin opens block b's transaction.
func (t *Txns[T]) Begin(b int, val T) *T {
	if t.live[b] != nil {
		panic(fmt.Sprintf("proto: block %d already has a transaction in flight", b))
	}
	var x *txn[T]
	if k := len(t.free); k > 0 {
		x, t.free = t.free[k-1], t.free[:k-1]
	} else {
		x = new(txn[T])
	}
	x.val = val
	t.live[b] = x
	return &x.val
}

// Get returns block b's transaction, nil if none is in flight.
func (t *Txns[T]) Get(b int) *T {
	if x := t.live[b]; x != nil {
		return &x.val
	}
	return nil
}

// Len returns the number of transactions in flight.
func (t *Txns[T]) Len() int { return len(t.live) }

// Park queues m, which its handler cannot serve while block m.Block is in
// flight, to be retried when the transaction ends. The message is retained
// past its handler's return.
func (t *Txns[T]) Park(m *network.Msg) {
	x := t.live[m.Block]
	m.Retain()
	x.waitq = append(x.waitq, m)
}

// End closes block b's transaction, if one is open, and retries the
// requests parked on it. Each is deferred to its own event at the current
// instant, so they resolve in arrival order after the finishing handler
// returns, and runs as a continuation of that handler: it re-enters the
// handler's critical-path context, carried on the retained message, so the
// request's resolution chains from the service that enabled it. A retried
// message is then released under the usual retention contract — handle may
// park it again.
func (t *Txns[T]) End(b int) {
	x := t.live[b]
	if x == nil {
		return
	}
	delete(t.live, b)
	for i, m := range x.waitq {
		if ct := t.env.Crit; ct != nil {
			m.SetCritContext(ct.Context())
		}
		t.env.Engine.AfterArg(0, t.retry, m)
		x.waitq[i] = nil
	}
	x.waitq = x.waitq[:0]
	t.free = append(t.free, x)
}

// Capture is a protocol's CaptureState: a deep copy of its state *s,
// refused while open — the protocol's count of transactions in flight — is
// not zero, since those hold retained messages no fork could share.
func Capture[S any](s *S, open int) (any, error) {
	if open != 0 {
		return nil, fmt.Errorf("proto: %d transactions in flight", open)
	}
	return digest.Clone(s), nil
}

// Restore is a protocol's RestoreState: it copies snapshot, a *S that
// Capture returned, into *s. The checkpoint has already pinned the
// protocol and the node count, so the type is all there is to check.
func Restore[S any](s *S, snapshot any) error {
	st, ok := snapshot.(*S)
	if !ok {
		return fmt.Errorf("proto: RestoreState of %T onto %T", snapshot, s)
	}
	digest.Copy(s, st)
	return nil
}
