// Package tlc implements a timestamp/lease coherence protocol in the
// spirit of Tardis 2.0, adapted to the paper's software-DSM setting. Each
// block's home keeps two logical timestamps instead of a sharer set: wts,
// the timestamp of the last write grant, and rts, the end of the current
// read lease. Readers renew leases instead of joining a copyset, so the
// directory entry is fixed-size no matter how widely a block is shared; a
// write bumps wts past the expired rts and never sends an invalidation.
// Staleness is resolved lazily, LRC-style: each node carries a scalar
// logical timestamp (pts) that advances only at acquires — piggybacked on
// lock grants and barrier releases by the synchronization layer through
// proto.TimestampCarrier — and an advance sweeps the node's leased copies
// whose lease ended before the new clock. Between synchronizations a node
// may read a lease past its end, which is exactly the staleness release
// consistency permits.
//
// Consistency argument: a lease granted before a write has rts < wts_new
// (writes pick wts_new = max(wts, rts, writer pts) + 1), the writer's pts
// rides up to wts_new at the grant, any release it performs carries at
// least that value, and the acquirer's sweep at the resulting timestamp
// jump invalidates every lease with rts < wts_new. Two rules keep the
// jump-only sweep sound: a pts advance from a write grant sweeps too (the
// new clock may outrun leases on other blocks), and a write-back retains
// a lease at the old owner only while rts has not already fallen behind
// the owner's clock — so every live lease satisfies rts >= pts, and an
// acquire that does not move the clock cannot have a stale lease to kill.
package tlc

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
	proto.Register("tlc", proto.Meta{
		Title: "timestamp lease coherence: per-block write/lease timestamps, no invalidation fan-out (Tardis-style)",
		Order: 50,
	}, func(env *proto.Env) proto.Protocol { return New(env) })
}

// Message kinds.
const (
	kRead = proto.ProtoKindBase + iota
	kWrite
	kGrantS   // home → reader: RO lease grant with data
	kLeaseExt // home → reader: lease renewal, metadata only (no data)
	kGrantX   // home → writer: exclusive grant (data nil on upgrade)
	kWBReq    // home → exclusive owner: write back and downgrade to a lease
	kWBData   // owner → home
)

// Wire encoding on network.Msg's inline fields (no boxed payloads). All
// timestamps are 64-bit logical time — they only ever advance, so there is
// no rollover to handle. Requests compress the requester id and the
// version of its resident bytes into one word (see packReq), so a request
// costs a single extra timestamp on the wire:
//
//	kRead/kWrite: A = requester | heldWts<<16, B = requester's pts
//	kGrantS:      Data = block contents, A = wts, B = rts
//	kLeaseExt:    A = wts, B = rts (requester's bytes are already current)
//	kGrantX:      Data = block contents (nil on upgrade), A = B = new wts
//	kWBReq:       A = current rts (bounds the lease the owner may retain)
//	kWBData:      Data = block contents, A = wts of those bytes
const leaseSpan = 10 // logical-time units added per read lease grant

// packReq compresses the requesting node and the write timestamp of the
// bytes resident in its space (0 when it never held a copy) into one
// int64. Node ids fit 16 bits (the simulator tops out at 1024 nodes) and
// logical time gets the remaining 47, far beyond any run's clock.
func packReq(requester int, held int64) int64 { return int64(requester) | held<<16 }

func unpackReq(a int64) (requester int, held int64) { return int(a & 0xffff), a >> 16 }

// txn is an in-flight home-side transaction for one block: a write-back
// in progress, or a first-touch claim whose exclusive grant is still in
// flight to the new home (install). Requests for the block meanwhile wait
// on the transaction.
type txn struct {
	install   bool
	write     bool
	requester int
	reqPts    int64
	held      int64
}

// Protocol is the TLC implementation. The directory and the per-node
// lease tables are sparse sharded tables keyed by block, so metadata
// scales with the touched working set; the directory entry itself is
// fixed-size — two timestamps and an owner — independent of how many
// nodes share the block, which is the point of leases over copysets.
type Protocol struct {
	env     *proto.Env
	state   // everything a checkpoint captures (state.go)
	txns    *proto.Txns[txn]
	pending *proto.Pending // per node: the single outstanding fault
	scratch []int          // expiry sweep scratch (no Copyset mutation mid-ForEach)
}

// tlcDir is the per-block directory state at the home. owner == -1 means
// the home copy is authoritative; otherwise the single read-write copy is
// at owner and every read must write it back first.
type tlcDir struct {
	owner int16
	wts   int64 // timestamp of the last write grant
	rts   int64 // end of the current read lease (rts >= wts once claimed)
}

// tlcView is one node's record of its local copy: the write timestamp of
// the resident bytes and, for leased copies, the lease end.
type tlcView struct {
	wts int64
	rts int64
}

var _, _ = proto.PoolShards[tlcDir](), proto.PoolShards[tlcView]()

// New creates the TLC protocol over env.
func New(env *proto.Env) *Protocol {
	nb := env.Homes.NumBlocks()
	n := env.Nodes()
	p := &Protocol{
		env: env,
		state: state{
			dir:    proto.NewTable(nb, func(e *tlcDir) { e.owner = -1 }),
			nodes:  proto.NewTables[tlcView](n, nb, nil),
			pts:    make([]int64, n),
			leased: make([]proto.Copyset, n),
		},
		pending: proto.NewPending(env, "home", "tlc read fault block", "tlc write fault block"),
	}
	env.Recycle(&p.dir)
	for i := range p.nodes {
		env.Recycle(&p.nodes[i])
	}
	p.txns = proto.NewTxns[txn](env, p.Handle)
	return p
}

// view returns node's record of block b, materialising its shard on first
// touch.
func (p *Protocol) view(node, b int) *tlcView { return p.nodes[node].At(b) }

// PreRelease implements proto.Protocol: nothing to flush — the single
// writable copy is authoritative and the release only publishes a clock.
func (p *Protocol) PreRelease(node int) []proto.WriteNotice { return nil }

// ApplyNotices implements proto.Protocol: no notices under TLC.
func (p *Protocol) ApplyNotices(node int, ivs []proto.Interval) {}

// OnAcquireComplete implements proto.Protocol: acquire-time work happens
// in AcquireTS, on the piggybacked timestamp.
func (p *Protocol) OnAcquireComplete(node int) {}

// ReleaseTS implements proto.TimestampCarrier. Proc context.
func (p *Protocol) ReleaseTS(node int) int64 { return p.pts[node] }

// AcquireTS implements proto.TimestampCarrier: advance node's clock to
// the releaser's and sweep the leases the jump expired. Engine context.
func (p *Protocol) AcquireTS(node int, ts int64) { p.advance(node, ts) }

// advance moves node's logical clock forward to ts and self-invalidates
// every leased copy whose lease ended before the new clock. This is the
// protocol's whole invalidation mechanism: no fan-out, no acks — each
// node discards its own expired leases when its clock jumps.
func (p *Protocol) advance(node int, ts int64) {
	if ts <= p.pts[node] {
		return
	}
	p.pts[node] = ts
	st := p.env.Stats[node]
	st.TimestampJumps++
	if p.leased[node].Empty() {
		return
	}
	p.scratch = p.scratch[:0]
	p.leased[node].ForEach(func(b int) {
		if p.view(node, b).rts < ts {
			p.scratch = append(p.scratch, b)
		}
	})
	sp := p.env.Spaces[node]
	for _, b := range p.scratch {
		p.leased[node].Remove(b)
		sp.SetTag(b, mem.NoAccess)
		st.LeaseExpiries++
		st.Invalidations++
		if tr := p.env.Tracer; tr != nil {
			tr.Instant(node, trace.CatProto, "expire",
				trace.A("block", int64(b)), trace.A("ts", ts))
		}
	}
}

// Fault implements proto.Protocol. Proc context; blocks until resolved.
func (p *Protocol) Fault(node, block int, write bool) {
	kind := kRead
	if write {
		kind = kWrite
	}
	// held is the version of the bytes sitting in the local space — they
	// survive a lease expiry (only the tag drops), so an expired reader
	// whose content is still current gets a metadata-only renewal.
	var held int64
	if v := p.nodes[node].Peek(block); v != nil {
		held = v.wts
	}
	p.pending.Request(node, write, &network.Msg{
		Dst: p.env.Homes.CachedHome(node, block), Kind: kind, Block: block,
		A: packReq(node, held), B: p.pts[node], Bytes: 24,
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
	case kRead, kWrite:
		p.handleReq(m)
	case kGrantS, kLeaseExt:
		p.handleGrantS(m)
	case kGrantX:
		p.handleGrantX(m)
	case kWBReq:
		p.handleWBReq(m)
	case kWBData:
		p.handleWBData(m)
	default:
		panic(fmt.Sprintf("tlc: unknown message kind %d", m.Kind))
	}
}

// handleReq runs at the node a request arrived at: the home, the static
// home (directory), or a stale cached home.
func (p *Protocol) handleReq(m *network.Msg) {
	here, b := m.Dst, m.Block
	homes := p.env.Homes
	requester, held := unpackReq(m.A)
	if !homes.Claimed(b) {
		if here != homes.Static(b) {
			panic(fmt.Sprintf("tlc: unclaimed block %d request at non-static node %d", b, here))
		}
		p.claim(here, m, requester)
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
	p.startTxn(home, b, m, requester, held)
}

// claim performs the first-touch home claim at the static home. The
// requester becomes home and exclusive owner (tag RW even for a read, so
// a first writer pays no second fault); timestamps start at 1. A claim is
// a mapping fault, not a coherence miss: undo the fault count.
func (p *Protocol) claim(here int, m *network.Msg, requester int) {
	b := m.Block
	p.env.ClaimHome(b, requester, m.Kind == kWrite)
	d := p.dir.At(b)
	d.owner = int16(requester)
	d.wts, d.rts = 1, 1
	sp := p.env.Spaces[here]
	if requester == here {
		// Self-claim: the seeded bytes are already in place.
		sp.SetTag(b, mem.ReadWrite)
		v := p.view(here, b)
		v.wts, v.rts = 1, 1
		p.advance(here, 1)
		p.pending.Done(here, b)
		return
	}
	// Requests forwarded to the new home before its data arrives must
	// wait for the installation.
	p.txns.Begin(b, txn{install: true, requester: requester})
	sp.SetTag(b, mem.NoAccess)
	p.env.SendBlock(here, &network.Msg{Dst: requester, Kind: kGrantX, Block: b, A: 1, B: 1, Bytes: 24})
}

// startTxn begins serving a read or write request at the home.
func (p *Protocol) startTxn(home, b int, m *network.Msg, requester int, held int64) {
	write := m.Kind == kWrite
	d := p.dir.At(b)
	owner := int(d.owner)
	if owner >= 0 && owner != home {
		// Remote exclusive copy: write it back before serving. The owner
		// downgrades to a lease — no invalidation, even for a write: the
		// grant's wts will land past rts, so the retained copy is merely
		// a lease like any other and dies at the owner's next clock jump.
		p.txns.Begin(b, txn{write: write, requester: requester, reqPts: m.B, held: held})
		p.env.Send(home, &network.Msg{
			Dst: owner, Kind: kWBReq, Block: b, A: d.rts, Bytes: 16,
		})
		return
	}
	if owner == home {
		// Home itself holds the RW copy: downgrade locally, no messages.
		// The home copy becomes the authoritative one (never leased, never
		// swept), so its bytes stay current by construction.
		d.owner = -1
		p.env.Spaces[home].SetTag(b, mem.ReadOnly)
	}
	if write {
		p.grantWrite(home, b, requester, m.B, held)
		return
	}
	p.grantRead(home, b, requester, m.B, held)
}

// grantRead serves a read request from a valid home copy (owner < 0),
// extending the block's lease and shipping data only when the requester's
// resident bytes are stale.
func (p *Protocol) grantRead(home, b, requester int, reqPts, held int64) {
	d := p.dir.At(b)
	sp := p.env.Spaces[home]
	if requester == home {
		// Home reading its own (now valid, post-write-back) copy: the
		// authoritative copy needs no lease window.
		if sp.Tag(b) == mem.NoAccess {
			sp.SetTag(b, mem.ReadOnly)
		}
		p.complete(home, b)
		p.txns.End(b)
		return
	}
	// Extend the lease so the fresh grant outlives the reader's clock.
	if end := max(d.wts, reqPts) + leaseSpan; end > d.rts {
		d.rts = end
	}
	if held == d.wts && held != 0 {
		// The reader's bytes are current: renew the lease, no data.
		p.env.Send(home, &network.Msg{
			Dst: requester, Kind: kLeaseExt, Block: b,
			A: d.wts, B: d.rts, Bytes: 24,
		})
		p.txns.End(b)
		return
	}
	p.env.SendBlock(home, &network.Msg{Dst: requester, Kind: kGrantS, Block: b, A: d.wts, B: d.rts, Bytes: 24})
	p.txns.End(b)
}

// grantWrite serves a write request from a valid home copy (owner < 0):
// pick the new write timestamp past every lease ever granted on the block
// and hand out the exclusive copy. No invalidations are sent — readers
// holding older leases expire themselves at their next clock jump.
func (p *Protocol) grantWrite(home, b, requester int, reqPts, held int64) {
	d := p.dir.At(b)
	preWts := d.wts
	wtsNew := max(d.wts, d.rts, reqPts) + 1
	d.wts, d.rts = wtsNew, wtsNew
	d.owner = int16(requester)
	sp := p.env.Spaces[home]
	if requester == home {
		sp.SetTag(b, mem.ReadWrite)
		v := p.view(home, b)
		v.wts, v.rts = wtsNew, wtsNew
		p.advance(home, wtsNew)
		p.complete(home, b)
		p.txns.End(b)
		return
	}
	sp.SetTag(b, mem.NoAccess)
	grant := network.Msg{Dst: requester, Kind: kGrantX, Block: b, A: wtsNew, B: wtsNew, Bytes: 24}
	if held == preWts && held != 0 {
		p.env.Send(home, &grant) // an upgrade: the requester's bytes are current
	} else {
		p.env.SendBlock(home, &grant)
	}
	p.txns.End(b)
}

// handleGrantS installs a read lease at the requester: fresh data under
// kGrantS, a metadata-only renewal under kLeaseExt.
func (p *Protocol) handleGrantS(m *network.Msg) {
	node := m.Dst
	b := m.Block
	p.env.Install(m)
	if m.Data == nil {
		p.env.Stats[node].LeaseRenewals++
	}
	p.env.Spaces[node].SetTag(b, mem.ReadOnly)
	v := p.view(node, b)
	v.wts, v.rts = m.A, m.B
	p.leased[node].Add(b)
	p.complete(node, b)
}

// handleGrantX installs the exclusive copy at the new owner.
func (p *Protocol) handleGrantX(m *network.Msg) {
	node := m.Dst
	b := m.Block
	p.env.Install(m)
	p.env.Spaces[node].SetTag(b, mem.ReadWrite)
	v := p.view(node, b)
	v.wts, v.rts = m.A, m.B
	p.leased[node].Remove(b) // a leased reader upgrading sheds the lease
	// The writer's clock rides up to the write timestamp; the jump sweeps
	// leases on other blocks the new clock has outrun, preserving the
	// live-lease invariant rts >= pts.
	p.advance(node, m.A)
	p.complete(node, b)
	if t := p.txns.Get(b); t != nil && t.install {
		p.txns.End(b) // installation finished: serve waiting requests
	}
}

// complete finishes node's outstanding fault on block b. The node has
// just heard from b's true home, so it learns the home mapping.
func (p *Protocol) complete(node, b int) {
	p.env.Homes.Learn(node, b)
	p.pending.Done(node, b)
}

// handleWBReq runs at the exclusive owner: ship the dirty bytes home and
// downgrade. The owner keeps its copy as an ordinary lease bounded by the
// home's current rts — unless its own clock has already outrun that
// lease, in which case retaining it would break the live-lease invariant
// and the copy is dropped on the spot.
func (p *Protocol) handleWBReq(m *network.Msg) {
	node := m.Dst
	b := m.Block
	sp := p.env.Spaces[node]
	v := p.view(node, b)
	if m.A >= p.pts[node] {
		sp.SetTag(b, mem.ReadOnly)
		v.rts = m.A
		p.leased[node].Add(b)
	} else {
		sp.SetTag(b, mem.NoAccess)
		st := p.env.Stats[node]
		st.LeaseExpiries++
		st.Invalidations++
	}
	p.env.SendBlock(node, &network.Msg{Dst: p.env.Homes.Home(b), Kind: kWBData, Block: b, A: v.wts, Bytes: 24})
}

// handleWBData installs the written-back bytes at the home and resumes
// the transaction that wanted them.
func (p *Protocol) handleWBData(m *network.Msg) {
	b := m.Block
	home := m.Dst
	t := p.txns.Get(b)
	if t == nil {
		panic(fmt.Sprintf("tlc: stray write-back for block %d", b))
	}
	p.env.Install(m) // the write-back makes the home copy current
	d := p.dir.At(b)
	d.owner = -1
	p.env.Spaces[home].SetTag(b, mem.ReadOnly)
	p.view(home, b).wts = d.wts
	if t.write {
		p.grantWrite(home, b, t.requester, t.reqPts, t.held)
		return
	}
	p.grantRead(home, b, t.requester, t.reqPts, t.held)
}

// Finalize implements proto.Protocol: pull every dirty exclusive copy
// back to the home image so Collect sees final data. Engine context, zero
// cost.
func (p *Protocol) Finalize() {
	for b, e := range p.dir.All() {
		p.env.PullBack(b, int(e.owner))
	}
}

// Collect implements proto.Protocol.
func (p *Protocol) Collect(b int) []byte { return p.env.HomeImage(b) }

// MemFootprint implements proto.MemReporter: the sharded timestamp
// directory (fixed-size per block — no sharer copysets to spill), each
// node's sharded lease table and leased-block set, and the per-node clocks.
// Nothing is allocated dynamically per release.
func (p *Protocol) MemFootprint() (int64, int64) {
	static := p.dir.MemBytes(int64(unsafe.Sizeof(tlcDir{})))
	for i := range p.nodes {
		static += p.nodes[i].MemBytes(int64(unsafe.Sizeof(tlcView{})))
		static += 8 + p.leased[i].MemBytes()
	}
	static += 8 * int64(len(p.pts))
	return static, 0
}
