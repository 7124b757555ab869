// Package shareprof is the sharing-pattern profiler: per-block coherence
// introspection that turns a run's faults and invalidations into an
// explanation — which data structure missed, under which sharing pattern,
// and how much of the cost was false sharing caused by the coherence
// granularity rather than by actual data communication (§5–6 of the
// paper explain every protocol × block-size result in exactly these
// terms).
//
// The profiler is strictly observational and fully deterministic: it is
// fed by the core runtime (access completions, fault entries, tag
// transitions) and by the protocols (block fills, diff applications),
// never schedules events, never advances virtual time, and draws all of
// its state up front from a pool (mem.Pool), which Release gives it back to.
// A run with the profiler attached is byte-identical to the same run without
// it, except for Result.Sharing.
//
// Attribution model. Each block is divided into up to 64 sectors (8-byte
// minimum, so a 64B block has 8 sectors and a 4KB block has 64). For
// every (block, node) pair the profiler keeps two sector bitmaps:
//
//   - stale: sectors remotely written since this node's copy was last
//     made current (a full-block fill clears it; an HLRC diff applied at
//     the home clears exactly the diffed sectors).
//   - touch: sectors this node has accessed since its copy was last made
//     current (used to resolve invalidations left pending at run end).
//
// Every completed write access by node j sets the written sectors in
// every other node's stale map and clears them in j's own. When node i
// faults on a block, the verdict is decided before the protocol runs:
//
//	cold     i never accessed this block before
//	upgrade  stale == 0: a permission miss (e.g. read-only to write),
//	         no remote data was produced since i's copy was current
//	true     stale ∩ accessed-sectors ≠ ∅: i is reading or writing data
//	         someone else actually produced
//	false    stale ≠ 0 but disjoint from the accessed sectors: the miss
//	         exists only because unrelated data shares the block
//
// Invalidations (tag transitions to NoAccess) cannot be attributed when
// they happen — under SC the invalidation arrives before the remote
// write executes — so they are held pending per (block, node) and
// resolved with the verdict of that node's next fault on the block;
// leftovers resolve at run end by intersecting stale with touch.
package shareprof

import (
	"math/bits"

	"dsmsim/internal/mem"
	"dsmsim/internal/proto"
)

// Profiler accumulates one run's sharing profile. All methods run in the
// simulation's proc or engine context; a Profiler is run-local and must
// not be shared across concurrent runs.
type Profiler struct {
	nodes      int
	blocks     int
	blockSize  int
	blockShift uint
	sectShift  uint // log2(sector size in bytes)
	sectors    int  // sectors per block (≤ 64)

	// Per (block, node) sector bitmaps and pending-invalidation counts,
	// indexed [block*nodes + node].
	stale   []uint64
	touch   []uint64
	pending []int32

	// Per block: the set of nodes that ever accessed it, its taxonomy
	// classifier, and its counters.
	touched []proto.Copyset
	cls     []classifier
	c       []blockCounters

	// Running whole-run totals for the metrics sampler's probe.
	totTrue, totFalse int64
}

// blockCounters are one block's event counts.
type blockCounters struct {
	readFaults, writeFaults       int64
	cold, truef, falsef, upgrade  int64
	invals, trueInval, falseInval int64
	fetchBytes                    int64
}

// New creates a profiler for a heap of heapSize bytes at the given
// coherence granularity with the given node count (≤ 1024, like the
// core; node sets use copysets, so counts past 64 cost only when a
// block's sharer population actually crosses the inline word).
func New(nodes, heapSize, blockSize int) *Profiler {
	if nodes <= 0 || nodes > 1024 {
		panic("shareprof: node count out of range")
	}
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		panic("shareprof: block size is not a power of two")
	}
	blocks := heapSize / blockSize
	sectors := blockSize / 8
	if sectors < 1 {
		sectors = 1
	}
	if sectors > 64 {
		sectors = 64
	}
	p := &Profiler{
		nodes:      nodes,
		blocks:     blocks,
		blockSize:  blockSize,
		blockShift: uint(bits.TrailingZeros(uint(blockSize))),
		sectShift:  uint(bits.TrailingZeros(uint(blockSize / sectors))),
		sectors:    sectors,
		stale:      words.Get(blocks * nodes),
		touch:      words.Get(blocks * nodes),
		pending:    counts.Get(blocks * nodes),
		touched:    sets.Get(blocks),
		cls:        classifiers.Get(blocks),
		c:          counters.Get(blocks),
	}
	return p
}

// The tables' pools, one per element type: stale and touch share one.
var (
	words       = mem.NewPool[uint64]()
	counts      = mem.NewPool[int32]()
	sets        = mem.NewPool[proto.Copyset]()
	classifiers = mem.NewPool[classifier]()
	counters    = mem.NewPool[blockCounters]()
)

// Release clears the tables and gives them back to their pools, once the
// run's Report has been made. The profiler is empty afterwards: a stale use
// indexes a nil slice instead of another run's tables.
func (p *Profiler) Release() {
	clear(p.stale)
	clear(p.touch)
	clear(p.pending)
	clear(p.touched)
	clear(p.cls)
	clear(p.c)
	words.Put(p.stale)
	words.Put(p.touch)
	counts.Put(p.pending)
	sets.Put(p.touched)
	classifiers.Put(p.cls)
	counters.Put(p.c)
	*p = Profiler{}
}

// SectorSize returns the attribution granularity in bytes.
func (p *Profiler) SectorSize() int { return p.blockSize / p.sectors }

// maskFor returns the sector bitmap covering in-block byte range [lo, hi).
func (p *Profiler) maskFor(lo, hi int) uint64 {
	if lo >= hi {
		return 0
	}
	s0 := uint(lo) >> p.sectShift
	s1 := uint(hi-1) >> p.sectShift
	n := s1 - s0 + 1
	if n >= 64 {
		return ^uint64(0)
	}
	return (1<<n - 1) << s0
}

// Access records one completed (fault-free) shared access by node over
// [addr, addr+size). Called by the core on every clean access pass; a
// write publishes its sectors into every other node's stale map.
func (p *Profiler) Access(node, addr, size int, write bool) {
	if size <= 0 {
		return
	}
	first := addr >> p.blockShift
	last := (addr + size - 1) >> p.blockShift
	for b := first; b <= last; b++ {
		start := b << p.blockShift
		lo, hi := addr-start, addr+size-start
		if lo < 0 {
			lo = 0
		}
		if hi > p.blockSize {
			hi = p.blockSize
		}
		m := p.maskFor(lo, hi)
		p.touched[b].Add(node)
		p.cls[b].observe(node, write)
		base := b * p.nodes
		p.touch[base+node] |= m
		if write {
			st := p.stale[base : base+p.nodes]
			for k := range st {
				st[k] |= m
			}
			st[node] &^= m
		}
	}
}

// Fault verdicts.
const (
	vCold = iota
	vUpgrade
	vTrue
	vFalse
)

// Fault records and attributes one access fault by node on block, where
// [addr, addr+size) is the access span that faulted. Called by the core
// at fault entry, before the protocol resolves it (resolution refreshes
// the node's copy and would erase the evidence).
func (p *Profiler) Fault(node, block, addr, size int, write bool) {
	start := block << p.blockShift
	lo, hi := addr-start, addr+size-start
	if lo < 0 {
		lo = 0
	}
	if hi > p.blockSize {
		hi = p.blockSize
	}
	a := p.maskFor(lo, hi)
	c := &p.c[block]
	if write {
		c.writeFaults++
	} else {
		c.readFaults++
	}
	i := block*p.nodes + node
	verdict := vFalse
	switch st := p.stale[i]; {
	case !p.touched[block].Contains(node):
		verdict = vCold
		c.cold++
	case st == 0:
		verdict = vUpgrade
		c.upgrade++
	case st&a != 0:
		verdict = vTrue
		c.truef++
		p.totTrue++
	default:
		c.falsef++
		p.totFalse++
	}
	if n := p.pending[i]; n > 0 {
		// The node's copy was invalidated since its last fault; the fault
		// we just attributed is the cost that invalidation caused.
		if verdict == vTrue {
			c.trueInval += int64(n)
		} else {
			c.falseInval += int64(n)
		}
		p.pending[i] = 0
	}
}

// OnTag observes a tag transition on node's copy of block b. Transitions
// to NoAccess are lost copies — coherence invalidations plus copies
// surrendered during ownership migration — counted here and attributed
// lazily (see package comment). Chain it behind any existing OnTag hook.
func (p *Profiler) OnTag(node, b int, old, new mem.Access) {
	if new == mem.NoAccess && old != mem.NoAccess {
		p.c[b].invals++
		p.pending[b*p.nodes+node]++
	}
}

// Filled records that the protocol installed a complete, current copy of
// block at node (SC data grants and write-backs, SW-LRC read/ownership
// data, HLRC fetches): the node's staleness evidence is reset.
func (p *Profiler) Filled(node, block int) {
	i := block*p.nodes + node
	p.stale[i] = 0
	p.touch[i] = 0
	p.c[block].fetchBytes += int64(p.blockSize)
}

// DiffApplied records that an HLRC diff was applied to node's (the
// home's) copy of block: exactly the diffed sectors become current there.
func (p *Profiler) DiffApplied(node, block int, d mem.Diff) {
	i := block*p.nodes + node
	payload := 0
	for _, r := range d.Runs {
		p.stale[i] &^= p.maskFor(r.Off, r.Off+len(r.Data))
		payload += len(r.Data)
	}
	p.c[block].fetchBytes += int64(payload)
}

// SharingFaults returns the cumulative true- and false-sharing fault
// totals so far — the metrics sampler's probe.
func (p *Profiler) SharingFaults() (trueF, falseF int64) {
	return p.totTrue, p.totFalse
}

// Report aggregates the run's profile into per-region statistics using
// the heap's named regions (in address order; blocks outside every named
// region fall into a synthetic "(unlabeled)" entry). It also resolves
// invalidations still pending at run end: an invalidation whose victim
// never faulted again is true sharing only if the remotely written
// sectors overlap what the victim had touched.
func (p *Profiler) Report(regions []mem.Region) *Report {
	for b := 0; b < p.blocks; b++ {
		base := b * p.nodes
		c := &p.c[b]
		for n := 0; n < p.nodes; n++ {
			if pv := p.pending[base+n]; pv > 0 {
				if p.stale[base+n]&p.touch[base+n] != 0 {
					c.trueInval += int64(pv)
				} else {
					c.falseInval += int64(pv)
				}
				p.pending[base+n] = 0
			}
		}
	}
	return p.aggregate(regions)
}
