// Package hlrc implements the home-based lazy release consistency protocol
// of §2.3 (Zhou et al.): a multiple-writer protocol using twins and diffs.
// Writers twin a block on the first write after an acquire and write into
// their copy; at a release the dirty copies are diffed against the twins
// and the diffs sent eagerly to each block's home, which keeps its copy
// up to date. Read faults fetch the whole block from the home. Write
// notices exchanged at acquires and barriers invalidate stale copies.
//
// One simplification relative to the original HLRC implementation is
// documented in DESIGN.md: a release waits for diff acknowledgements from
// the homes instead of using version-number waits at the home on fetch.
// Both schemes make the same fetches see the same data; ack-waiting moves
// the (small) wait from the fetch path to the release path.
package hlrc

import (
	"fmt"
	"sort"

	"dsmsim/internal/mem"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
	"dsmsim/internal/trace"
)

func init() {
	proto.Register("hlrc", proto.Meta{
		Title: "home-based lazy release consistency: twins and diffs flushed to homes (§2.3)",
		Order: 40, Paper: true, NeedsClocks: true,
	}, func(env *proto.Env) proto.Protocol { return New(env) })
}

// Message kinds.
const (
	kFetch = proto.ProtoKindBase + iota
	kFetchData
	kDiff
	kDiffAck
)

// Wire encoding on network.Msg's inline fields:
//
//	kFetch:     A = requesting node, Flag = write-faulting (claim if unclaimed)
//	kFetchData: Data = block contents, A = real home (-1 unclaimed), Flag = youAreHome
//	kDiff:      Payload = *diffMsg (pooled), carrying the diff and its arena
//	kDiffAck:   no body
//
// diffMsg is the one boxed payload left: a pooled, reusable carrier for a
// release-time diff. Its runs and byte arena are reused across diffs, so
// steady-state flushes allocate nothing; the pointer boxes into Payload
// without allocating.
type diffMsg struct {
	node    int
	block   int
	diff    mem.Diff
	needAck bool   // release-time flushes wait for acks; early flushes don't
	buf     []byte // arena backing diff's run data, reused across diffs
}

// Protocol is the HLRC implementation.
type Protocol struct {
	env          *proto.Env
	state        // everything a checkpoint captures (state.go)
	pending      *proto.Pending
	flushAcks    []int  // per node: outstanding diff acks during a release
	flushWaiting []bool // per node: proc is blocked in PreRelease
	// installs holds the blocks whose first-touch home grant is still in
	// flight to the new home; fetches and diffs for them wait there.
	installs *proto.Txns[struct{}]

	// Free lists: twin buffers and diff carriers recycle across the run.
	// blockScratch is PreRelease's sort scratch (never live across a
	// yield); outScratch is its send list and noticeScratch the notices it
	// returns, per node because both stay live across the diff-cost Sleep
	// and the flush Block, where other procs may release.
	twinFree      [][]byte
	diffFree      []*diffMsg
	blockScratch  []int
	outScratch    [][]*diffMsg
	noticeScratch [][]proto.WriteNotice
}

// getDiff pops a pooled diff carrier (or allocates one).
func (p *Protocol) getDiff() *diffMsg {
	if k := len(p.diffFree); k > 0 {
		dm := p.diffFree[k-1]
		p.diffFree = p.diffFree[:k-1]
		return dm
	}
	return &diffMsg{}
}

// putDiff returns a carrier whose diff has been applied; its runs and
// arena stay attached for reuse.
func (p *Protocol) putDiff(dm *diffMsg) { p.diffFree = append(p.diffFree, dm) }

// getTwin returns a block-sized twin buffer from the free list.
func (p *Protocol) getTwin(size int) []byte {
	if k := len(p.twinFree); k > 0 {
		t := p.twinFree[k-1]
		p.twinFree = p.twinFree[:k-1]
		if cap(t) >= size {
			return t[:size]
		}
	}
	return make([]byte, size)
}

func (p *Protocol) putTwin(t []byte) { p.twinFree = append(p.twinFree, t) }

// New creates the HLRC protocol over env.
func New(env *proto.Env) *Protocol {
	n := env.Nodes()
	p := &Protocol{
		env:           env,
		pending:       proto.NewPending(env, "target", "hlrc read fetch block", "hlrc write fetch block"),
		flushAcks:     make([]int, n),
		flushWaiting:  make([]bool, n),
		outScratch:    make([][]*diffMsg, n),
		noticeScratch: make([][]proto.WriteNotice, n),
		state:         state{earlyNotices: make([][]proto.WriteNotice, n)},
	}
	for i := 0; i < n; i++ {
		p.twins = append(p.twins, make(map[int][]byte))
		p.written = append(p.written, make(map[int]int32))
		p.seq = append(p.seq, make(map[int]int32))
	}
	p.installs = proto.NewTxns[struct{}](env, p.Handle)
	return p
}

// OnAcquireComplete implements proto.Protocol: all acquire-time work
// happens through the write-notice mechanism (ApplyNotices).
func (p *Protocol) OnAcquireComplete(node int) {}

// isHome reports whether node is block b's (claimed) home.
func (p *Protocol) isHome(node, b int) bool {
	return p.env.Homes.Claimed(b) && p.env.Homes.Home(b) == node
}

// Fault implements proto.Protocol. Proc context.
func (p *Protocol) Fault(node, block int, write bool) {
	sp := p.env.Spaces[node]
	model := p.env.Model
	homes := p.env.Homes

	if write && sp.Tag(block) == mem.ReadOnly {
		// Valid copy: this is the multiple-writer upgrade path.
		if p.isHome(node, block) {
			p.markHomeWrite(node, block)
			return
		}
		if !homes.Claimed(block) {
			// First store to this block anywhere: claim the home (§2:
			// a "touch" is a store for HLRC). The directory round trip
			// to the static home is modeled as a sleep; the claim
			// itself is atomic in the sequential engine.
			p.env.ClaimHome(block, node, true)
			p.env.Procs[node].Sleep(model.RoundTrip(8))
			p.markHomeWrite(node, block)
			return
		}
		p.makeTwin(node, block)
		return
	}

	// No valid copy (or a write fault on an invalid block): fetch from the
	// home; for writes on unclaimed blocks the fetch claims the home.
	target := homes.Static(block)
	if homes.Claimed(block) {
		target = homes.Home(block)
	}
	p.pending.Request(node, write, &network.Msg{
		Dst: target, Kind: kFetch, Block: block,
		A: int64(node), Flag: write, Bytes: 8,
	})
	if write && p.pending.At(node).BecameHome {
		p.markHomeWrite(node, block)
	} else if write {
		p.makeTwin(node, block)
	}
}

// markHomeWrite records a write by the home itself: no twin or diff is
// needed, but the block joins the interval's write set so notices go out,
// and the tag is raised for direct writes.
func (p *Protocol) markHomeWrite(node, block int) {
	p.env.Spaces[node].SetTag(block, mem.ReadWrite)
	if _, ok := p.written[node][block]; !ok {
		p.seq[node][block]++
		p.written[node][block] = p.seq[node][block]
	}
}

// makeTwin creates the clean copy enabling multiple concurrent writers.
// Proc context; charges the twin-copy cost.
func (p *Protocol) makeTwin(node, block int) {
	sp := p.env.Spaces[node]
	cur := sp.BlockData(block)
	twin := p.getTwin(len(cur))
	copy(twin, cur)
	p.twins[node][block] = twin
	sp.SetTag(block, mem.ReadWrite)
	p.env.Stats[node].TwinsCreated++
	if tr := p.env.Tracer; tr != nil {
		tr.Instant(node, trace.CatProto, "twin",
			trace.A("block", int64(block)), trace.A("bytes", int64(len(twin))))
	}
	p.twinBytes += int64(len(twin))
	if p.twinBytes > p.twinBytesPeak {
		p.twinBytesPeak = p.twinBytes
	}
	p.env.Procs[node].Sleep(p.env.Model.TwinCreate(len(cur)))
}

// PreRelease implements proto.Protocol: diff every dirty block against its
// twin, send the non-empty diffs to the homes, wait for the
// acknowledgements, and return the interval's write notices. Blocks that
// produced a diff stay WRITABLE with a refreshed twin — a streaming writer
// faults once per block, not once per interval (this is what keeps HLRC's
// write-fault counts in Tables 8–12 an order of magnitude below SC's).
// A block with an empty diff is idle: drop its twin and re-protect it.
// The notices are valid until node's next PreRelease. Proc context.
func (p *Protocol) PreRelease(node int) []proto.WriteNotice {
	sp := p.env.Spaces[node]
	model := p.env.Model
	start := p.env.Engine.Now()

	notices := append(p.noticeScratch[node][:0], p.earlyNotices[node]...)
	p.earlyNotices[node] = p.earlyNotices[node][:0]
	var diffCost sim.Time
	out := p.outScratch[node][:0]

	// Map iteration order is randomized; the simulation must be
	// deterministic, so process blocks in ascending order.
	blocks := p.blockScratch[:0]
	for b := range p.twins[node] {
		blocks = append(blocks, b)
	}
	sort.Ints(blocks)
	for _, b := range blocks {
		twin := p.twins[node][b]
		diffCost += model.DiffCreate(sp.BlockSize())
		dm := p.getDiff()
		dm.diff, dm.buf = mem.DiffInto(twin, sp.BlockData(b), dm.diff.Runs, dm.buf)
		p.env.Stats[node].DiffsCreated++
		if dm.diff.Empty() {
			// Idle since the last flush: stop tracking, re-protect.
			p.putDiff(dm)
			delete(p.twins[node], b)
			p.twinBytes -= int64(len(twin))
			p.putTwin(twin)
			if sp.Tag(b) == mem.ReadWrite {
				sp.SetTag(b, mem.ReadOnly)
			}
			continue
		}
		// Streaming: refresh the twin, keep the block writable.
		copy(twin, sp.BlockData(b))
		diffCost += model.TwinCreate(sp.BlockSize())
		p.seq[node][b]++
		notices = append(notices, proto.WriteNotice{Block: int32(b), Seq: p.seq[node][b]})
		dm.node = node
		dm.block = b
		dm.needAck = true
		out = append(out, dm)
	}
	// Home blocks written this interval (tracked by their faults).
	hblocks := blocks[:0] // the dirty blocks are done with
	for b := range p.written[node] {
		hblocks = append(hblocks, b)
	}
	sort.Ints(hblocks)
	for _, b := range hblocks {
		notices = append(notices, proto.WriteNotice{Block: int32(b), Seq: p.written[node][b]})
	}
	clear(p.written[node])
	p.blockScratch = hblocks[:0]
	p.noticeScratch[node] = notices

	if diffCost > 0 {
		p.env.Procs[node].Sleep(diffCost)
	}
	if len(out) > 0 {
		p.flushAcks[node] = len(out)
		p.flushWaiting[node] = true
		for _, dm := range out {
			target := p.env.Homes.Home(dm.block) // claimed: we wrote it
			p.env.Stats[node].DiffPayloadBytes += int64(dm.diff.PayloadBytes())
			if tr := p.env.Tracer; tr != nil {
				tr.Instant(node, trace.CatProto, "diff",
					trace.A("block", int64(dm.block)), trace.A("home", int64(target)),
					trace.A("bytes", int64(dm.diff.PayloadBytes())))
			}
			p.env.Send(node, &network.Msg{
				Dst: target, Kind: kDiff, Block: dm.block,
				Payload: dm,
				Bytes:   dm.diff.WireBytes(model.DiffEntryOverhead) + 8,
			})
		}
		p.env.Procs[node].Block("hlrc diff flush")
		p.outScratch[node] = out[:0]
		p.flushWaiting[node] = false
	}
	p.env.Stats[node].FlushTime += p.env.Engine.Now() - start
	if tr := p.env.Tracer; tr != nil {
		tr.Span(node, trace.CatProto, "flush", start,
			trace.A("diffs", int64(len(out))), trace.A("notices", int64(len(notices))))
	}
	return notices
}

// ApplyNotices implements proto.Protocol: invalidate stale copies. A block
// the node itself is home to is skipped — the home copy is kept current by
// the (acknowledged) eager diffs. A locally dirty block is flushed early
// before invalidation so no writes are lost to false sharing.
func (p *Protocol) ApplyNotices(node int, ivs []proto.Interval) {
	sp := p.env.Spaces[node]
	for _, iv := range ivs {
		if int(iv.Node) == node {
			continue
		}
		for _, wn := range iv.Notices {
			b := int(wn.Block)
			if p.isHome(node, b) {
				continue
			}
			if twin, ok := p.twins[node][b]; ok {
				p.earlyFlush(node, b, twin)
			}
			if sp.Tag(b) != mem.NoAccess {
				sp.SetTag(b, mem.NoAccess)
				p.env.Stats[node].Invalidations++
			}
		}
	}
}

// earlyFlush sends the diff of a still-dirty block that is about to be
// invalidated by a notice (write-write false sharing across locks).
func (p *Protocol) earlyFlush(node, b int, twin []byte) {
	sp := p.env.Spaces[node]
	dm := p.getDiff()
	dm.diff, dm.buf = mem.DiffInto(twin, sp.BlockData(b), dm.diff.Runs, dm.buf)
	delete(p.twins[node], b)
	p.twinBytes -= int64(len(twin))
	p.putTwin(twin)
	p.env.Stats[node].DiffsCreated++
	if dm.diff.Empty() {
		p.putDiff(dm)
		return
	}
	// The flushed writes still need a notice at our next release.
	p.seq[node][b]++
	p.earlyNotices[node] = append(p.earlyNotices[node],
		proto.WriteNotice{Block: int32(b), Seq: p.seq[node][b]})
	p.env.Stats[node].DiffPayloadBytes += int64(dm.diff.PayloadBytes())
	if tr := p.env.Tracer; tr != nil {
		tr.Instant(node, trace.CatProto, "diff-early",
			trace.A("block", int64(b)), trace.A("bytes", int64(dm.diff.PayloadBytes())))
	}
	dm.node = node
	dm.block = b
	dm.needAck = false
	p.env.Send(node, &network.Msg{
		Dst: p.env.Homes.Home(b), Kind: kDiff, Block: b,
		Payload: dm,
		Bytes:   dm.diff.WireBytes(p.env.Model.DiffEntryOverhead) + 8,
	})
}

// ServiceCost implements proto.Protocol: a home applies a diff.
func (p *Protocol) ServiceCost(m *network.Msg) sim.Time {
	if m.Kind == kDiff {
		return p.env.Model.DiffApply(m.Payload.(*diffMsg).diff.PayloadBytes())
	}
	return 0
}

// Handle implements proto.Protocol.
func (p *Protocol) Handle(m *network.Msg) {
	switch m.Kind {
	case kFetch:
		p.handleFetch(m)
	case kFetchData:
		p.handleFetchData(m)
	case kDiff:
		p.handleDiff(m)
	case kDiffAck:
		p.handleDiffAck(m)
	default:
		panic(fmt.Sprintf("hlrc: unknown message kind %d", m.Kind))
	}
}

func (p *Protocol) handleFetch(m *network.Msg) {
	here := m.Dst
	b := m.Block
	requester := int(m.A)
	homes := p.env.Homes

	if p.installs.Get(b) != nil {
		p.installs.Park(m)
		return
	}
	if !homes.Claimed(b) {
		if here != homes.Static(b) {
			panic(fmt.Sprintf("hlrc: unclaimed block %d fetch at non-static node %d", b, here))
		}
		grant := network.Msg{Dst: requester, Kind: kFetchData, Block: b, A: -1, Bytes: 8}
		if m.Flag {
			// First touch by store: the requester becomes home.
			p.env.ClaimHome(b, requester, true)
			p.installs.Begin(b, struct{}{})
			grant.A, grant.Flag = int64(requester), true
		}
		p.env.SendBlock(here, &grant)
		return
	}
	home := homes.Home(b)
	if here != home {
		p.env.Forward(here, home, "home", m)
		return
	}
	// Downgrade-on-serve: once a reader holds a copy, a later write by
	// the home must fault again so its notice goes out. Blocks never
	// served stay silently writable, which is why a block written only by
	// its home takes no write faults (LU, Table 3).
	sp := p.env.Spaces[here]
	if sp.Tag(b) == mem.ReadWrite {
		sp.SetTag(b, mem.ReadOnly)
	}
	p.env.SendBlock(here, &network.Msg{Dst: requester, Kind: kFetchData, Block: b, A: int64(home), Bytes: 8})
}

func (p *Protocol) handleFetchData(m *network.Msg) {
	node := m.Dst
	b := m.Block
	sp := p.env.Spaces[node]
	p.env.Install(m)
	if m.Flag {
		sp.SetTag(b, mem.ReadWrite)
		p.pending.At(node).BecameHome = true
		p.installs.End(b)
	} else {
		sp.SetTag(b, mem.ReadOnly)
	}
	p.pending.Done(node, b)
}

func (p *Protocol) handleDiff(m *network.Msg) {
	here := m.Dst
	b := m.Block
	dm := m.Payload.(*diffMsg)
	if p.installs.Get(b) != nil {
		p.installs.Park(m)
		return
	}
	if home := p.env.Homes.Home(b); here != home {
		p.env.Forward(here, home, "home", m)
		return
	}
	dm.diff.Apply(p.env.Spaces[here].BlockData(b))
	if o := p.env.Prof; o != nil {
		o.DiffApplied(here, b, dm.diff)
	}
	p.env.Stats[here].DiffsApplied++
	if tr := p.env.Tracer; tr != nil {
		tr.Instant(here, trace.CatProto, "diff-apply",
			trace.A("block", int64(b)), trace.A("from", int64(dm.node)))
	}
	if dm.needAck {
		p.env.Send(here, &network.Msg{Dst: dm.node, Kind: kDiffAck, Block: b, Bytes: 8})
	}
	p.putDiff(dm)
}

func (p *Protocol) handleDiffAck(m *network.Msg) {
	node := m.Dst
	p.flushAcks[node]--
	if p.flushAcks[node] == 0 && p.flushWaiting[node] {
		p.env.Procs[node].Unblock()
	}
}

// Finalize implements proto.Protocol: apply any outstanding dirty diffs
// directly (the run is over; no cost modeled).
func (p *Protocol) Finalize() {
	for node := range p.twins {
		// Nodes in order (later diffs of a block win, as releases would
		// have it); a node's blocks in any order — they do not overlap.
		for b, twin := range p.twins[node] {
			mem.MakeDiff(twin, p.env.Spaces[node].BlockData(b)).Apply(p.env.HomeImage(b))
		}
		clear(p.twins[node])
	}
}

// Collect implements proto.Protocol.
func (p *Protocol) Collect(b int) []byte { return p.env.HomeImage(b) }

// MemFootprint implements proto.MemReporter: no fixed metadata beyond the
// home map, and the peak twin storage.
func (p *Protocol) MemFootprint() (int64, int64) { return 0, p.twinBytesPeak }
