package network

import (
	"dsmsim/internal/digest"
	"dsmsim/internal/mem"
	"dsmsim/internal/sim"
)

// linkTable enforces FIFO delivery per directed link, as on Myrinet's
// source-routed cut-through fabric: a later (smaller) message never
// overtakes an earlier (larger) one on the same src→dst pair. It holds the
// arrival time of the latest message sent on each link, and a network pays
// for the links it used, not for nodes²: each source's destinations are
// split into pages of linkPage links, a [src][dst/linkPage] directory says
// where a page lives, and a page is materialised, zeroed, by the first send
// that lands on it. Pages are cut from chunks that hold what a barrier
// touches — all to one, one to all: a page per endpoint plus one row — and
// never more than the whole table. A network of up to linkPage endpoints
// thus takes its whole table — the bytes one dense row per endpoint would —
// as one object, and a 1024-node run that only meets at barriers takes one
// chunk, a sixteenth of the dense table.
//
// A network's table (pooled) draws its directory and chunks from linkDirs
// and linkChunks and gives them back, cleared over what it used, at Close; a
// snapshot's allocates them, because a checkpoint outlives its run.
type linkTable struct {
	nodes      int      // endpoints; set by New, everything below at the first send
	pooled     bool     // set by New: draw from and release to the pools
	pageLen    int      // links per page: min(linkPage, nodes)
	perSrc     int      // directory entries per source
	chunkPages int      // pages per chunk
	dir        []uint32 // 0 = absent, else 1 + chunk<<16 + page within the chunk
	chunks     [][]sim.Time
	one        [1][]sim.Time // chunks' backing while one chunk is enough
	used       int           // pages cut from the newest chunk
}

const linkPage = 64 // destinations per page

var (
	linkDirs   = mem.NewPool[uint32]()
	linkChunks = mem.NewPool[sim.Time]()
)

// alloc makes the directory.
func (t *linkTable) alloc() {
	t.pageLen = min(linkPage, t.nodes)
	t.perSrc = (t.nodes + linkPage - 1) / linkPage
	t.chunkPages = min(t.nodes+t.perSrc, t.nodes*t.perSrc)
	if t.pooled {
		t.dir = linkDirs.Get(t.nodes * t.perSrc)
	} else {
		t.dir = make([]uint32, t.nodes*t.perSrc)
	}
	t.chunks = t.one[:0]
}

// newChunk appends an all-zero chunk of chunkPages pages.
func (t *linkTable) newChunk() {
	n := t.chunkPages * t.pageLen
	if t.pooled {
		t.chunks = append(t.chunks, linkChunks.Get(n))
	} else {
		t.chunks = append(t.chunks, make([]sim.Time, n))
	}
	t.used = 0
}

// release clears what a pooled table used — the directory, every chunk but
// the newest whole, the newest over the pages cut from it — and gives it back
// to the pools. The table is empty afterwards, as before its first send.
func (t *linkTable) release() {
	if !t.pooled || t.dir == nil {
		return
	}
	clear(t.dir)
	linkDirs.Put(t.dir)
	last := len(t.chunks) - 1
	for i, c := range t.chunks {
		if i == last {
			c = c[:t.used*t.pageLen]
		}
		clear(c)
		linkChunks.Put(c)
	}
	*t = linkTable{nodes: t.nodes, pooled: true}
}

// page returns the clamps of the links from src to the destinations of
// directory entry e (of src's row), nil if none was sent on yet.
func (t *linkTable) page(e uint32) []sim.Time {
	if e == 0 {
		return nil
	}
	off := int((e-1)&0xffff) * t.pageLen
	return t.chunks[(e-1)>>16][off : off+t.pageLen]
}

// slot returns the clamp of link src→dst, materialising its page.
func (t *linkTable) slot(src, dst int) *sim.Time {
	if t.dir == nil {
		t.alloc()
	}
	e := &t.dir[src*t.perSrc+dst/linkPage]
	if *e == 0 {
		if len(t.chunks) == 0 || t.used == t.chunkPages {
			t.newChunk()
		}
		*e = 1 + uint32(len(t.chunks)-1)<<16 + uint32(t.used)
		t.used++
	}
	return &t.page(*e)[dst%linkPage]
}

// LinkState is a snapshot of a network's link table: the pages materialised
// so far, nothing for the rest. Opaque; reusable across any number of
// restores.
type LinkState struct{ t linkTable }

// copyFrom makes t an independent copy of src, drawing from the pools if t
// is pooled.
func (t *linkTable) copyFrom(src *linkTable) {
	*t = linkTable{nodes: src.nodes, pooled: t.pooled}
	if src.dir == nil {
		return
	}
	t.alloc()
	copy(t.dir, src.dir)
	for _, c := range src.chunks {
		t.newChunk()
		copy(t.chunks[len(t.chunks)-1], c)
	}
	t.used = src.used
}

// CaptureLinks snapshots the per-link FIFO clamps.
func (n *Network) CaptureLinks() *LinkState {
	st := new(LinkState)
	st.t.copyFrom(&n.links)
	return st
}

// RestoreLinks applies a snapshot to a freshly built network of the same
// size, re-cloned into pages drawn from the pools so the snapshot stays
// pristine.
func (n *Network) RestoreLinks(st *LinkState) { n.links.copyFrom(&st.t) }

// Fold implements digest.Folder: every materialised page in (source, first
// destination) order, each link's clamp. Two tables that clamp every link
// alike and materialised the same pages digest alike, whatever order the
// pages were first touched in.
func (st *LinkState) Fold(d *digest.Digest) {
	t := &st.t
	for i, e := range t.dir {
		if pg := t.page(e); pg != nil {
			src, first := i/t.perSrc, i%t.perSrc*linkPage
			d.Int(src)
			d.Int(first)
			for _, at := range pg[:min(t.pageLen, t.nodes-first)] {
				d.I64(int64(at))
			}
		}
	}
}
