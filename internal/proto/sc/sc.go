// Package sc implements the sequentially consistent protocol of §2.1: a
// Stache-style directory protocol run in software. Each block has a home
// holding the directory and (when no exclusive copy exists) valid data.
// Reads and writes that miss send a request to the home; the home collects
// invalidation acknowledgements or write-backs before forwarding data.
// Synchronization involves no protocol activity.
package sc

import (
	"fmt"
	"unsafe"

	"dsmsim/internal/mem"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
	"dsmsim/internal/trace"
)

func init() {
	proto.Register("sc", proto.Meta{
		Title: "sequential consistency: Stache directory, eager invalidation (§2.1)",
		Order: 10, Paper: true,
	}, func(env *proto.Env) proto.Iface { return New(env) })
	proto.Register("dc", proto.Meta{
		Title: "delayed consistency: SC with invalidations buffered until the next acquire (§7)",
		Order: 20,
	}, func(env *proto.Env) proto.Iface { return NewDelayed(env) })
}

// Message kinds.
const (
	kReadReq = proto.ProtoKindBase + iota
	kWriteReq
	kData   // home → requester: RO data grant
	kDataEx // home → requester: RW grant (data nil on upgrade)
	kInval  // home → sharer
	kInvalAck
	kWBReq  // home → exclusive owner: write back (and maybe invalidate)
	kWBData // owner → home
)

// Wire encoding on network.Msg's inline fields (no boxed payloads):
//
//	kReadReq/kWriteReq: A = original requester (survives forwarding)
//	kData/kDataEx:      Data = block contents (nil on upgrade), A = real home
//	kWBReq:             Flag = invalidate after write-back
//	kWBData:            Data = block contents

// txn is an in-flight home-side transaction for one block. install marks a
// first-touch claim whose data grant is still in flight to the new home;
// requests forwarded there meanwhile wait in waitq.
type txn struct {
	write     bool
	requester int
	acksLeft  int
	install   bool
	waitq     []*network.Msg
}

type pendingFault struct {
	block int
	write bool
}

// Protocol is the SC implementation.
type Protocol struct {
	env *proto.Env

	// Directory, indexed by block. owner == -1 means the home copy is
	// valid and sharers lists the remote read-only copies; otherwise the
	// single read-write copy is at owner. Entries materialise per shard
	// on first touch, so directory memory tracks the touched span of the
	// heap, not heap size (or node count — nodes that learned a migrated
	// home are recorded sparsely in proto.Homes).
	dir proto.Table[dirEntry]

	txns map[int]*txn
	// redispatch re-runs handleReq on a request drained from a wait queue.
	redispatch func(*network.Msg)

	pending []pendingFault // per node: the single outstanding fault

	// Delayed-consistency mode (see delayed.go): invalidations are acked
	// immediately and buffered per node until its next acquire.
	delayed      bool
	pendingInval []proto.Copyset // per node: blocks with a deferred invalidation
}

// dirEntry is the per-block directory state at the home.
type dirEntry struct {
	owner   int16 // node holding the exclusive RW copy, -1 if none
	sharers proto.Copyset
}

// New creates the SC protocol over env.
func New(env *proto.Env) *Protocol {
	nb := env.Homes.NumBlocks()
	n := env.Nodes()
	p := &Protocol{
		env:     env,
		dir:     proto.NewTable(nb, func(e *dirEntry) { e.owner = -1 }),
		txns:    make(map[int]*txn),
		pending: make([]pendingFault, n),
	}
	p.redispatch = env.Redispatcher(func(m *network.Msg) { p.handleReq(m.Dst, m) })
	return p
}

// Name implements proto.Protocol.
func (p *Protocol) Name() string {
	if p.delayed {
		return "dc"
	}
	return "sc"
}

// UsesIntervals implements proto.Protocol: SC exchanges no write notices.
func (p *Protocol) UsesIntervals() bool { return false }

// PreRelease implements proto.Protocol: nothing to flush under SC.
func (p *Protocol) PreRelease(node int) []proto.WriteNotice { return nil }

// ApplyNotices implements proto.Protocol: no notices under SC.
func (p *Protocol) ApplyNotices(node int, ivs []proto.Interval) {}

// Fault implements proto.Protocol. Proc context; blocks until resolved.
func (p *Protocol) Fault(node, block int, write bool) {
	p.pending[node] = pendingFault{block: block, write: write}
	kind := kReadReq
	if write {
		kind = kWriteReq
	}
	home := p.env.Homes.CachedHome(node, block)
	if tr := p.env.Tracer; tr != nil {
		tr.Instant(node, trace.CatProto, "fetch",
			trace.A("block", int64(block)), trace.A("write", trace.Bool(write)),
			trace.A("home", int64(home)))
	}
	p.env.Send(node, &network.Msg{
		Dst: home, Kind: kind, Block: block,
		A: int64(node), Bytes: 8,
	})
	reason := "sc read fault block"
	if write {
		reason = "sc write fault block"
	}
	p.env.Procs[node].BlockID(reason, block)
}

// ServiceCost implements proto.Protocol.
func (p *Protocol) ServiceCost(m *network.Msg) sim.Time {
	switch m.Kind {
	case kData, kDataEx, kWBData:
		return p.env.Model.MemCopy(len(m.Data))
	case kWBReq:
		return p.env.Model.MemCopy(p.env.Spaces[0].BlockSize())
	default:
		return 0
	}
}

// Handle implements proto.Protocol.
func (p *Protocol) Handle(m *network.Msg) {
	switch m.Kind {
	case kReadReq, kWriteReq:
		p.handleReq(m.Dst, m)
	case kData:
		p.handleData(m, false)
	case kDataEx:
		p.handleData(m, true)
	case kInval:
		p.handleInval(m)
	case kInvalAck:
		p.handleInvalAck(m)
	case kWBReq:
		p.handleWBReq(m)
	case kWBData:
		p.handleWBData(m)
	default:
		panic(fmt.Sprintf("sc: unknown message kind %d", m.Kind))
	}
}

// handleReq runs at the node a request arrived at: the home, the static
// home (directory), or a stale cached home.
func (p *Protocol) handleReq(here int, m *network.Msg) {
	b := m.Block
	homes := p.env.Homes
	requester := int(m.A)
	if !homes.Claimed(b) {
		if here != homes.Static(b) {
			panic(fmt.Sprintf("sc: unclaimed block %d request at non-static node %d", b, here))
		}
		// First touch: the requester becomes home (§2). Ship the seeded
		// copy; the new home installs it and serves itself. This is a
		// mapping fault, not a coherence miss: the paper's fault tables
		// exclude it (LU's write faults are zero), so undo the count.
		homes.Claim(b, requester)
		p.env.Stats[requester].HomeMigrations++
		if m.Kind == kWriteReq {
			p.env.Stats[requester].WriteFaults--
		} else {
			p.env.Stats[requester].ReadFaults--
		}
		p.dir.At(b).owner = int16(requester)
		if requester == here {
			p.installHome(here, b)
			return
		}
		// Requests forwarded to the new home before its data arrives
		// must wait for the installation.
		p.txns[b] = &txn{install: true, requester: requester}
		sp := p.env.Spaces[here]
		data := p.env.Net.AllocData(sp.BlockSize())
		copy(data, sp.BlockData(b))
		sp.SetTag(b, mem.NoAccess)
		p.env.Send(here, &network.Msg{
			Dst: requester, Kind: kDataEx, Block: b,
			Data: data, DataPooled: true, A: int64(requester),
			Bytes: len(data) + 8,
		})
		return
	}
	home := homes.Home(b)
	if here != home {
		// Stale cache or directory lookup: forward to the real home.
		p.env.Stats[here].Forwards++
		if tr := p.env.Tracer; tr != nil {
			tr.Instant(here, trace.CatProto, "forward",
				trace.A("block", int64(b)), trace.A("home", int64(home)))
		}
		if ct := p.env.Crit; ct != nil {
			ct.MarkForward()
		}
		p.env.Send(here, &network.Msg{
			Dst: home, Kind: m.Kind, Block: b, A: m.A, Bytes: m.Bytes,
		})
		return
	}
	if t := p.txns[b]; t != nil {
		m.Retain() // survives the handler; drain re-dispatches and releases
		t.waitq = append(t.waitq, m)
		return
	}
	p.startTxn(home, b, m)
}

// startTxn begins serving a read or write request at the home.
func (p *Protocol) startTxn(home, b int, m *network.Msg) {
	requester := int(m.A)
	write := m.Kind == kWriteReq
	sp := p.env.Spaces[home]
	owner := int(p.dir.At(b).owner)

	if owner >= 0 && owner != home {
		// Remote exclusive copy: write it back (and invalidate for a
		// write request) before serving.
		t := &txn{write: write, requester: requester, acksLeft: 1}
		p.txns[b] = t
		p.env.Send(home, &network.Msg{
			Dst: owner, Kind: kWBReq, Block: b,
			Flag: write, Bytes: 8,
		})
		return
	}
	if owner == home {
		// Home itself holds the RW copy: downgrade locally, no messages.
		p.dir.At(b).owner = -1
		if write {
			sp.SetTag(b, mem.NoAccess)
		} else {
			sp.SetTag(b, mem.ReadOnly)
		}
	}
	if write {
		p.finishWrite(home, b, requester, nil)
		return
	}
	p.grantRead(home, b, requester)
}

// grantRead serves a read request from a valid home copy.
func (p *Protocol) grantRead(home, b, requester int) {
	sp := p.env.Spaces[home]
	if requester == home {
		// Home reading its own (now valid) copy.
		if sp.Tag(b) == mem.NoAccess {
			sp.SetTag(b, mem.ReadOnly)
		}
		p.complete(home, b, false)
		p.drain(b)
		return
	}
	p.dir.At(b).sharers.Add(requester)
	if sp.Tag(b) == mem.ReadWrite {
		sp.SetTag(b, mem.ReadOnly)
	}
	data := p.env.Net.AllocData(sp.BlockSize())
	copy(data, sp.BlockData(b))
	p.env.Send(home, &network.Msg{
		Dst: requester, Kind: kData, Block: b,
		Data: data, DataPooled: true, A: int64(home),
		Bytes: len(data) + 8,
	})
	p.drain(b)
}

// finishWrite invalidates the remaining sharers and then grants RW.
// Precondition: no remote exclusive copy (owner is -1).
func (p *Protocol) finishWrite(home, b, requester int, t *txn) {
	e := p.dir.At(b)
	others := e.sharers.Count()
	if e.sharers.Contains(requester) {
		others--
	}
	if others > 0 {
		if t == nil {
			t = &txn{write: true, requester: requester}
			p.txns[b] = t
		}
		t.acksLeft = 0
		e.sharers.ForEach(func(s int) {
			if s == requester {
				return
			}
			t.acksLeft++
			p.env.Send(home, &network.Msg{Dst: s, Kind: kInval, Block: b, Bytes: 8})
		})
		return
	}
	p.grantWrite(home, b, requester)
}

// grantWrite completes a write transaction: all other copies are gone.
func (p *Protocol) grantWrite(home, b, requester int) {
	sp := p.env.Spaces[home]
	e := p.dir.At(b)
	wasSharer := e.sharers.Contains(requester)
	e.sharers.Clear()
	e.owner = int16(requester)
	if requester == home {
		sp.SetTag(b, mem.ReadWrite)
		p.complete(home, b, true)
		p.drain(b)
		return
	}
	sp.SetTag(b, mem.NoAccess)
	var data []byte
	if !wasSharer {
		data = p.env.Net.AllocData(sp.BlockSize())
		copy(data, sp.BlockData(b))
	}
	p.env.Send(home, &network.Msg{
		Dst: requester, Kind: kDataEx, Block: b,
		Data: data, DataPooled: data != nil, A: int64(home),
		Bytes: len(data) + 8,
	})
	p.drain(b)
}

// drain re-dispatches requests queued behind a finished transaction.
func (p *Protocol) drain(b int) {
	t := p.txns[b]
	if t == nil {
		return
	}
	delete(p.txns, b)
	for _, m := range t.waitq {
		p.redispatch(m)
	}
}

// handleData installs a granted copy at the requester and resumes it.
func (p *Protocol) handleData(m *network.Msg, exclusive bool) {
	node := m.Dst
	sp := p.env.Spaces[node]
	if m.Data != nil {
		copy(sp.BlockData(m.Block), m.Data)
		if o := p.env.Prof; o != nil {
			o.Filled(node, m.Block)
		}
	}
	p.complete(node, m.Block, exclusive)
	if t := p.txns[m.Block]; t != nil && t.install {
		p.drain(m.Block) // installation finished: serve waiting requests
	}
}

// complete finishes node's outstanding fault on block b. The node has
// just heard from b's true home, so it learns the home mapping.
func (p *Protocol) complete(node, b int, exclusive bool) {
	sp := p.env.Spaces[node]
	if exclusive {
		sp.SetTag(b, mem.ReadWrite)
	} else if sp.Tag(b) == mem.NoAccess {
		sp.SetTag(b, mem.ReadOnly)
	}
	pf := p.pending[node]
	if pf.block != b {
		panic(fmt.Sprintf("sc: node %d completed block %d but pending fault is %d", node, b, pf.block))
	}
	if p.delayed {
		p.pendingInval[node].Remove(b)
	}
	p.env.Homes.Learn(node, b)
	p.env.Procs[node].Unblock()
}

// installHome makes node the first-touch home of block b using its static
// seed data already present locally (node == static home case).
func (p *Protocol) installHome(node, b int) {
	p.env.Spaces[node].SetTag(b, mem.ReadWrite)
	if p.pending[node].block != b {
		panic("sc: installHome without matching pending fault")
	}
	p.env.Procs[node].Unblock()
}

func (p *Protocol) handleInval(m *network.Msg) {
	if p.delayed {
		p.handleInvalDelayed(m)
		return
	}
	node := m.Dst
	p.env.Spaces[node].SetTag(m.Block, mem.NoAccess)
	p.env.Stats[node].Invalidations++
	if tr := p.env.Tracer; tr != nil {
		tr.Instant(node, trace.CatProto, "inval", trace.A("block", int64(m.Block)))
	}
	home := p.env.Homes.Home(m.Block)
	p.env.Send(node, &network.Msg{Dst: home, Kind: kInvalAck, Block: m.Block, Bytes: 8})
}

func (p *Protocol) handleInvalAck(m *network.Msg) {
	b := m.Block
	home := m.Dst
	t := p.txns[b]
	if t == nil {
		panic(fmt.Sprintf("sc: stray inval ack for block %d", b))
	}
	p.dir.At(b).sharers.Remove(m.Src)
	t.acksLeft--
	if t.acksLeft == 0 {
		p.grantWrite(home, b, t.requester)
	}
}

func (p *Protocol) handleWBReq(m *network.Msg) {
	node := m.Dst
	sp := p.env.Spaces[node]
	data := p.env.Net.AllocData(sp.BlockSize())
	copy(data, sp.BlockData(m.Block))
	if m.Flag {
		sp.SetTag(m.Block, mem.NoAccess)
		p.env.Stats[node].Invalidations++
	} else {
		sp.SetTag(m.Block, mem.ReadOnly)
	}
	home := p.env.Homes.Home(m.Block)
	p.env.Send(node, &network.Msg{
		Dst: home, Kind: kWBData, Block: m.Block,
		Data: data, DataPooled: true, Bytes: len(data) + 8,
	})
}

func (p *Protocol) handleWBData(m *network.Msg) {
	b := m.Block
	home := m.Dst
	t := p.txns[b]
	if t == nil {
		panic(fmt.Sprintf("sc: stray write-back for block %d", b))
	}
	sp := p.env.Spaces[home]
	copy(sp.BlockData(b), m.Data)
	if o := p.env.Prof; o != nil {
		o.Filled(home, b) // the write-back makes the home copy current
	}
	e := p.dir.At(b)
	old := int(e.owner)
	e.owner = -1
	if t.write {
		// Old owner invalidated itself; proceed to invalidate sharers.
		t.acksLeft = 0
		p.finishWrite(home, b, t.requester, t)
		return
	}
	// Read request: old owner kept a read-only copy.
	e.sharers.Add(old)
	sp.SetTag(b, mem.ReadOnly)
	p.grantRead(home, b, t.requester)
}

// Finalize implements proto.Protocol: pull every dirty exclusive copy back
// to the home image so Collect sees final data. Engine context, zero cost.
func (p *Protocol) Finalize() {
	for b := 0; b < p.env.Homes.NumBlocks(); b++ {
		e := p.dir.Peek(b)
		if e == nil {
			continue // untouched block: no exclusive copy anywhere
		}
		o := int(e.owner)
		if !p.env.Homes.Claimed(b) {
			continue
		}
		home := p.env.Homes.Home(b)
		if o >= 0 && o != home {
			copy(p.env.Spaces[home].BlockData(b), p.env.Spaces[o].BlockData(b))
		}
	}
}

// Collect implements proto.Protocol.
func (p *Protocol) Collect(b int) []byte {
	homes := p.env.Homes
	if !homes.Claimed(b) {
		return p.env.Spaces[homes.Static(b)].BlockData(b)
	}
	return p.env.Spaces[homes.Home(b)].BlockData(b)
}

// MemFootprint implements proto.MemReporter: the sharded directory
// (owner + sharer copyset per touched block — shards materialise on
// first touch, so untouched heap costs nothing), any sharer-set spill
// pages, the sparse home map with its migrated-block overlay, and the
// delayed-consistency buffers when enabled. SC allocates nothing
// per-release.
func (p *Protocol) MemFootprint() (int64, int64) {
	static := p.dir.MemBytes(int64(unsafe.Sizeof(dirEntry{})))
	for b := 0; b < p.env.Homes.NumBlocks(); b++ {
		if e := p.dir.Peek(b); e != nil {
			static += e.sharers.MemBytes()
		}
	}
	static += p.env.Homes.MemBytes()
	for i := range p.pendingInval {
		static += 8 + p.pendingInval[i].MemBytes()
	}
	return static, 0
}
