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
	}, func(env *proto.Env) proto.Protocol { return New(env) })
	proto.Register("dc", proto.Meta{
		Title: "delayed consistency: SC with invalidations buffered until the next acquire (§7)",
		Order: 20,
	}, func(env *proto.Env) proto.Protocol { return NewDelayed(env) })
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
// requests forwarded there meanwhile wait on the transaction.
type txn struct {
	write     bool
	requester int
	acksLeft  int
	install   bool
}

// Protocol is the SC implementation.
type Protocol struct {
	env     *proto.Env
	state   // everything a checkpoint captures (state.go)
	txns    *proto.Txns[txn]
	pending *proto.Pending // per node: the single outstanding fault

	// Delayed-consistency mode (see delayed.go): invalidations are acked
	// immediately and buffered per node until its next acquire.
	delayed bool
}

// dirEntry is the per-block directory state at the home.
type dirEntry struct {
	owner   int16 // node holding the exclusive RW copy, -1 if none
	sharers proto.Copyset
}

var _ = proto.PoolShards[dirEntry]()

// New creates the SC protocol over env.
func New(env *proto.Env) *Protocol {
	p := &Protocol{
		env:     env,
		state:   state{dir: proto.NewTable(env.Homes.NumBlocks(), func(e *dirEntry) { e.owner = -1 })},
		pending: proto.NewPending(env, "home", "sc read fault block", "sc write fault block"),
	}
	env.Recycle(&p.dir)
	p.txns = proto.NewTxns[txn](env, p.Handle)
	return p
}

// PreRelease implements proto.Protocol: nothing to flush under SC.
func (p *Protocol) PreRelease(node int) []proto.WriteNotice { return nil }

// ApplyNotices implements proto.Protocol: no notices under SC.
func (p *Protocol) ApplyNotices(node int, ivs []proto.Interval) {}

// Fault implements proto.Protocol. Proc context; blocks until resolved.
func (p *Protocol) Fault(node, block int, write bool) {
	kind := kReadReq
	if write {
		kind = kWriteReq
	}
	p.pending.Request(node, write, &network.Msg{
		Dst: p.env.Homes.CachedHome(node, block), Kind: kind, Block: block,
		A: int64(node), Bytes: 8,
	})
}

// ServiceCost implements proto.Protocol: a write-back request copies the
// owner's block out.
func (p *Protocol) ServiceCost(m *network.Msg) sim.Time {
	if m.Kind == kWBReq {
		return p.env.Model.MemCopy(p.env.Spaces[0].BlockSize())
	}
	return 0
}

// Handle implements proto.Protocol.
func (p *Protocol) Handle(m *network.Msg) {
	switch m.Kind {
	case kReadReq, kWriteReq:
		p.handleReq(m)
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
func (p *Protocol) handleReq(m *network.Msg) {
	here, b := m.Dst, m.Block
	homes := p.env.Homes
	requester := int(m.A)
	if !homes.Claimed(b) {
		if here != homes.Static(b) {
			panic(fmt.Sprintf("sc: unclaimed block %d request at non-static node %d", b, here))
		}
		// First touch: the requester becomes home (§2). Ship the seeded
		// copy; the new home installs it and serves itself.
		p.env.ClaimHome(b, requester, m.Kind == kWriteReq)
		p.dir.At(b).owner = int16(requester)
		if requester == here {
			// The static home claiming its own block: the seed data is
			// already in place.
			p.env.Spaces[here].SetTag(b, mem.ReadWrite)
			p.pending.Done(here, b)
			return
		}
		// Requests forwarded to the new home before its data arrives
		// must wait for the installation.
		p.txns.Begin(b, txn{install: true, requester: requester})
		p.env.Spaces[here].SetTag(b, mem.NoAccess)
		p.env.SendBlock(here, &network.Msg{Dst: requester, Kind: kDataEx, Block: b, A: int64(requester), Bytes: 8})
		return
	}
	home := homes.Home(b)
	if here != home {
		// Stale cache or directory lookup: forward to the real home.
		p.env.Forward(here, home, "home", m)
		return
	}
	if p.txns.Get(b) != nil {
		p.txns.Park(m)
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
		p.txns.Begin(b, txn{write: write, requester: requester, acksLeft: 1})
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
		p.txns.End(b)
		return
	}
	p.dir.At(b).sharers.Add(requester)
	if sp.Tag(b) == mem.ReadWrite {
		sp.SetTag(b, mem.ReadOnly)
	}
	p.env.SendBlock(home, &network.Msg{Dst: requester, Kind: kData, Block: b, A: int64(home), Bytes: 8})
	p.txns.End(b)
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
			t = p.txns.Begin(b, txn{write: true, requester: requester})
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
		p.txns.End(b)
		return
	}
	sp.SetTag(b, mem.NoAccess)
	grant := network.Msg{Dst: requester, Kind: kDataEx, Block: b, A: int64(home), Bytes: 8}
	if wasSharer {
		p.env.Send(home, &grant) // an upgrade: the requester's bytes are current
	} else {
		p.env.SendBlock(home, &grant)
	}
	p.txns.End(b)
}

// handleData installs a granted copy at the requester and resumes it.
func (p *Protocol) handleData(m *network.Msg, exclusive bool) {
	p.env.Install(m)
	p.complete(m.Dst, m.Block, exclusive)
	if t := p.txns.Get(m.Block); t != nil && t.install {
		p.txns.End(m.Block) // installation finished: serve waiting requests
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
	if p.delayed {
		p.pendingInval[node].Remove(b)
	}
	p.env.Homes.Learn(node, b)
	p.pending.Done(node, b)
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
	t := p.txns.Get(b)
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
	if m.Flag {
		sp.SetTag(m.Block, mem.NoAccess)
		p.env.Stats[node].Invalidations++
	} else {
		sp.SetTag(m.Block, mem.ReadOnly)
	}
	p.env.SendBlock(node, &network.Msg{Dst: p.env.Homes.Home(m.Block), Kind: kWBData, Block: m.Block, Bytes: 8})
}

func (p *Protocol) handleWBData(m *network.Msg) {
	b := m.Block
	home := m.Dst
	t := p.txns.Get(b)
	if t == nil {
		panic(fmt.Sprintf("sc: stray write-back for block %d", b))
	}
	sp := p.env.Spaces[home]
	p.env.Install(m) // the write-back makes the home copy current
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
	for b, e := range p.dir.All() {
		p.env.PullBack(b, int(e.owner))
	}
}

// Collect implements proto.Protocol.
func (p *Protocol) Collect(b int) []byte { return p.env.HomeImage(b) }

// MemFootprint implements proto.MemReporter: the sharded directory
// (owner + sharer copyset per touched block — shards materialise on
// first touch, so untouched heap costs nothing), any sharer-set spill
// pages and the delayed-consistency buffers when enabled. SC allocates
// nothing per-release.
func (p *Protocol) MemFootprint() (int64, int64) {
	static := p.dir.MemBytes(int64(unsafe.Sizeof(dirEntry{})))
	for _, e := range p.dir.All() {
		static += e.sharers.MemBytes()
	}
	for i := range p.pendingInval {
		static += 8 + p.pendingInval[i].MemBytes()
	}
	return static, 0
}
