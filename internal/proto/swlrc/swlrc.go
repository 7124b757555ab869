// Package swlrc implements the single-writer lazy release consistency
// protocol of §2.2: one writable copy coexists with multiple read-only
// copies. A write fault migrates ownership without invalidating readers;
// stale read-only copies are invalidated lazily, at the acquire, using the
// write notices that travel with the lock. Blocks are versioned every time
// ownership changes or the owner publishes new writes, which lets a read
// fault be serviced in a one-hop round trip by any node whose copy is
// recent enough for the reader's causal requirements.
package swlrc

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
	proto.Register("swlrc", proto.Meta{
		Title: "single-writer lazy release consistency: migrating ownership, versioned reads (§2.2)",
		Order: 30, Paper: true, NeedsClocks: true,
	}, func(env *proto.Env) proto.Protocol { return New(env) })
}

// Message kinds.
const (
	kRead = proto.ProtoKindBase + iota
	kReadData
	kOwn
	kOwnData
)

// Wire encoding on network.Msg's inline fields (no boxed payloads):
//
//	kRead:     A = requesting node, B = causal floor from the reader's notices
//	kReadData: Data = block contents, A = version, B = serving node
//	kOwn:      A = requesting node, B = version of requester's copy (-1 none)
//	kOwnData:  Data = block contents, A = version

// Protocol is the SW-LRC implementation. Both the global directory and
// the per-node causality tables are sparse sharded tables: state
// materialises per 256-block shard on first touch, so memory scales
// with each node's touched working set instead of nodes × heap blocks.
type Protocol struct {
	env     *proto.Env
	state   // everything a checkpoint captures (state.go)
	pending *proto.Pending
	// installs holds the blocks whose ownership grant is still in flight
	// to the new owner; requests for them wait there.
	installs *proto.Txns[struct{}]
	// notices is PreRelease's result, reused: PreRelease never yields,
	// and its caller publishes a copy before the node's proc can yield.
	notices []proto.WriteNotice
}

// swDir is the global per-block directory entry.
type swDir struct {
	owner   int16 // current single-writer owner, -1 before claim
	version int32 // authoritative block version, held by the owner
}

// swNode is one node's per-block view.
type swNode struct {
	localVer  int32 // version of the local copy
	lastKnown int32 // owner hint from notices, -1 none
	required  int32 // minimum version causality demands
}

var _, _ = proto.PoolShards[swDir](), proto.PoolShards[swNode]()

// New creates the SW-LRC protocol over env.
func New(env *proto.Env) *Protocol {
	nb := env.Homes.NumBlocks()
	n := env.Nodes()
	p := &Protocol{
		env: env,
		state: state{
			dir:     proto.NewTable(nb, func(e *swDir) { e.owner = -1 }),
			nodes:   make([]proto.Table[swNode], n),
			written: make([]proto.Copyset, n),
		},
		pending: proto.NewPending(env, "target", "swlrc read fault block", "swlrc write fault block"),
	}
	env.Recycle(&p.dir)
	for i := 0; i < n; i++ {
		p.nodes[i] = proto.NewTable(nb, func(e *swNode) { e.lastKnown = -1 })
		env.Recycle(&p.nodes[i])
	}
	p.installs = proto.NewTxns[struct{}](env, p.Handle)
	return p
}

// at returns node's view of block b, materialising its shard on first
// touch.
func (p *Protocol) at(node, b int) *swNode { return p.nodes[node].At(b) }

// OnAcquireComplete implements proto.Protocol: all acquire-time work
// happens through the write-notice mechanism (ApplyNotices).
func (p *Protocol) OnAcquireComplete(node int) {}

// Fault implements proto.Protocol. Proc context.
func (p *Protocol) Fault(node, block int, write bool) {
	sp := p.env.Spaces[node]

	if write && int(p.dir.At(block).owner) == node {
		// The owner's first write of a new interval: purely local.
		sp.SetTag(block, mem.ReadWrite)
		p.written[node].Add(block)
		return
	}

	req := network.Msg{Kind: kRead, Block: block, A: int64(node), Bytes: 12}
	if write {
		req.Kind = kOwn
		req.B = -1
		if sp.Tag(block) != mem.NoAccess {
			req.B = int64(p.at(node, block).localVer)
		}
		req.Dst = p.ownTarget(node, block)
	} else {
		req.B = int64(p.at(node, block).required)
		req.Dst = p.readTarget(node, block)
	}
	p.pending.Request(node, write, &req)
	if write {
		p.written[node].Add(block)
	}
}

// ownTarget picks where to send an ownership request: the directory (static
// home) when unclaimed, otherwise the known owner or the directory.
func (p *Protocol) ownTarget(node, block int) int {
	if p.dir.At(block).owner < 0 {
		return p.env.Homes.Static(block)
	}
	if lk := p.at(node, block).lastKnown; lk >= 0 {
		return int(lk)
	}
	return p.env.Homes.Static(block)
}

// readTarget picks where to send a read request: the notice-supplied owner
// hint gives the one-hop path (§2.2); otherwise the directory.
func (p *Protocol) readTarget(node, block int) int {
	if lk := p.at(node, block).lastKnown; lk >= 0 {
		return int(lk)
	}
	return p.env.Homes.Static(block)
}

// PreRelease implements proto.Protocol: version the written blocks and emit
// their notices; nothing is flushed (the single writable copy is already
// authoritative). A block whose ownership migrated away mid-interval is
// still noticed — the migration bump already covers its writes, which
// travelled with the data to the new owner. The notices are valid until
// the next PreRelease.
func (p *Protocol) PreRelease(node int) []proto.WriteNotice {
	notices := p.notices[:0]
	// Copyset iteration is ascending block order; the simulator must not
	// be order-sensitive, so no explicit sort is needed.
	p.written[node].ForEach(func(b int) {
		d := p.dir.At(b)
		if int(d.owner) == node {
			d.version++
			p.at(node, b).localVer = d.version
		}
		notices = append(notices, proto.WriteNotice{Block: int32(b), Version: d.version})
	})
	p.written[node].Clear()
	p.notices = notices
	return notices
}

// ApplyNotices implements proto.Protocol: record owner hints and causal
// floors, and invalidate copies older than the noticed versions.
func (p *Protocol) ApplyNotices(node int, ivs []proto.Interval) {
	sp := p.env.Spaces[node]
	for _, iv := range ivs {
		if int(iv.Node) == node {
			continue
		}
		for _, wn := range iv.Notices {
			b := int(wn.Block)
			v := p.at(node, b)
			v.lastKnown = iv.Node
			if wn.Version > v.required {
				v.required = wn.Version
			}
			if int(p.dir.At(b).owner) == node {
				continue // the current owner is never stale
			}
			if sp.Tag(b) != mem.NoAccess && v.localVer < wn.Version {
				sp.SetTag(b, mem.NoAccess)
				p.env.Stats[node].Invalidations++
				if tr := p.env.Tracer; tr != nil {
					tr.Instant(node, trace.CatProto, "inval",
						trace.A("block", int64(b)), trace.A("ver", int64(wn.Version)))
				}
			}
		}
	}
}

// ServiceCost implements proto.Protocol: swlrc's messages cost nothing
// beyond the install of the block they ship.
func (p *Protocol) ServiceCost(m *network.Msg) sim.Time { return 0 }

// Handle implements proto.Protocol.
func (p *Protocol) Handle(m *network.Msg) {
	switch m.Kind {
	case kRead:
		p.handleRead(m)
	case kReadData:
		p.handleReadData(m)
	case kOwn:
		p.handleOwn(m)
	case kOwnData:
		p.handleOwnData(m)
	default:
		panic(fmt.Sprintf("swlrc: unknown message kind %d", m.Kind))
	}
}

// claim performs the first-touch home/ownership claim at the static home.
// A claim is a mapping fault, not a coherence miss: undo the fault count.
func (p *Protocol) claim(here int, m *network.Msg, requester int) {
	b := m.Block
	if here != p.env.Homes.Static(b) {
		panic(fmt.Sprintf("swlrc: unclaimed block %d requested at non-static node %d", b, here))
	}
	write := m.Kind == kOwn
	p.env.ClaimHome(b, requester, write)
	d := p.dir.At(b)
	d.owner = int16(requester)
	d.version = 1
	sp := p.env.Spaces[here]
	if requester == here {
		// Self-claim: the seeded bytes are already in place.
		sp.SetTag(b, mem.NoAccess)
		p.at(here, b).localVer = 1
		if write {
			sp.SetTag(b, mem.ReadWrite)
		} else {
			sp.SetTag(b, mem.ReadOnly)
		}
		p.pending.Done(here, b)
		return
	}
	sp.SetTag(b, mem.NoAccess)
	p.installs.Begin(b, struct{}{})
	p.env.SendBlock(here, &network.Msg{Dst: requester, Kind: kOwnData, Block: b, A: 1, Bytes: 12})
}

func (p *Protocol) handleRead(m *network.Msg) {
	here := m.Dst
	b := m.Block
	requester := int(m.A)
	minVer := int32(m.B)
	if p.installs.Get(b) != nil {
		p.installs.Park(m)
		return
	}
	d := p.dir.At(b)
	if d.owner < 0 {
		p.claim(here, m, requester) // a load is a touch for SW-LRC
		return
	}
	sp := p.env.Spaces[here]
	isOwner := int(d.owner) == here
	ver := p.at(here, b).localVer
	if isOwner {
		ver = d.version
	}
	if (isOwner || sp.Tag(b) != mem.NoAccess) && ver >= minVer {
		// Downgrade-on-serve: once a reader holds a copy, a later write
		// by the owner must fault so it is versioned and noticed. Blocks
		// never served stay silently writable across releases, which is
		// why LU takes no write faults (Table 3).
		if isOwner && sp.Tag(b) == mem.ReadWrite {
			sp.SetTag(b, mem.ReadOnly)
		}
		p.env.SendBlock(here, &network.Msg{
			Dst: requester, Kind: kReadData, Block: b, A: int64(ver), B: int64(here), Bytes: 12,
		})
		return
	}
	// Too stale (or no copy): forward to the current owner.
	p.env.Forward(here, int(d.owner), "owner", m)
}

func (p *Protocol) handleReadData(m *network.Msg) {
	node := m.Dst
	b := m.Block
	p.env.Install(m)
	p.env.Spaces[node].SetTag(b, mem.ReadOnly)
	v := p.at(node, b)
	v.localVer = int32(m.A)
	v.lastKnown = int32(m.B)
	p.pending.Done(node, b)
}

func (p *Protocol) handleOwn(m *network.Msg) {
	here := m.Dst
	b := m.Block
	requester := int(m.A)
	if p.installs.Get(b) != nil {
		p.installs.Park(m)
		return
	}
	d := p.dir.At(b)
	if d.owner < 0 {
		p.claim(here, m, requester)
		return
	}
	if int(d.owner) != here {
		p.env.Forward(here, int(d.owner), "owner", m)
		return
	}
	// Migrate ownership: bump the version, keep a read-only copy.
	sp := p.env.Spaces[here]
	preVer := d.version
	d.version++
	p.at(here, b).localVer = preVer // our copy predates the new owner's writes
	if sp.Tag(b) == mem.ReadWrite {
		sp.SetTag(b, mem.ReadOnly)
	}
	// written[here] keeps b if we wrote it this interval: our release must
	// still notice those writes even though ownership moved on.
	d.owner = int16(requester)
	p.installs.Begin(b, struct{}{})
	// Always ship the data: block versions advance only at interval
	// closes, so version equality does NOT imply the requester's copy is
	// current (the owner may hold unpublished writes).
	p.env.SendBlock(here, &network.Msg{Dst: requester, Kind: kOwnData, Block: b, A: int64(d.version), Bytes: 12})
}

func (p *Protocol) handleOwnData(m *network.Msg) {
	node := m.Dst
	b := m.Block
	sp := p.env.Spaces[node]
	p.env.Install(m)
	if p.pending.At(node).Write {
		sp.SetTag(b, mem.ReadWrite)
	} else {
		// A read-touch claim: the new owner holds the block read-only so
		// its first write still faults and is recorded for notices.
		sp.SetTag(b, mem.ReadOnly)
	}
	v := p.at(node, b)
	v.localVer = int32(m.A)
	v.lastKnown = int32(node)
	p.pending.Done(node, b)
	p.installs.End(b)
}

// Finalize implements proto.Protocol: the owner copies are authoritative;
// nothing to flush.
func (p *Protocol) Finalize() {}

// Collect implements proto.Protocol.
func (p *Protocol) Collect(b int) []byte {
	if d := p.dir.Peek(b); d != nil && d.owner >= 0 {
		return p.env.Spaces[int(d.owner)].BlockData(b)
	}
	return p.env.Spaces[p.env.Homes.Static(b)].BlockData(b)
}

// MemFootprint implements proto.MemReporter: the sharded owner/version
// directory plus each node's sharded version / owner-hint / causal-floor
// table — all materialised per touched 256-block shard — and the
// per-interval write sets; nothing is allocated dynamically per release.
func (p *Protocol) MemFootprint() (int64, int64) {
	static := p.dir.MemBytes(int64(unsafe.Sizeof(swDir{})))
	for i := range p.nodes {
		static += p.nodes[i].MemBytes(int64(unsafe.Sizeof(swNode{})))
		static += 8 + p.written[i].MemBytes()
	}
	return static, 0
}
