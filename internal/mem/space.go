// Package mem models each node's view of the shared address space.
//
// A Space is a local copy of the global shared heap plus one access tag per
// coherence block — the software equivalent of the Typhoon-0 card's
// fine-grained access-control tags. Every load or store the application
// issues is checked against the tag of the block it falls in; a mismatch is
// an access fault that the coherence protocol must resolve.
package mem

import (
	"fmt"
	"math/bits"

	"dsmsim/internal/digest"
)

// Access is a block's access tag, mirroring the Typhoon-0 states.
type Access uint8

const (
	// NoAccess: any load or store faults.
	NoAccess Access = iota
	// ReadOnly: loads hit, stores fault.
	ReadOnly
	// ReadWrite: loads and stores hit.
	ReadWrite
)

func (a Access) String() string {
	switch a {
	case NoAccess:
		return "none"
	case ReadOnly:
		return "ro"
	case ReadWrite:
		return "rw"
	default:
		return fmt.Sprintf("Access(%d)", uint8(a))
	}
}

// Allows reports whether the tag permits the given kind of access.
func (a Access) Allows(write bool) bool {
	if write {
		return a == ReadWrite
	}
	return a != NoAccess
}

// Space is one node's local copy of the shared address space, divided into
// fixed-size coherence blocks, each with an access tag.
//
// A space also keeps a sticky dirty map over its data, one byte per 4 KB
// page: a page is marked the first time a tag on it changes or one of its
// blocks is handed out by BlockData. Those are the only routes to a space's
// bytes — application accesses through Bytes are tag-guarded, so a tag
// transition always comes first — which gives the invariant everything
// that walks a space relies on: a page not marked dirty is all-zero with
// every tag NoAccess. Release, State, Restore and the run's final
// write-back visit dirty pages only.
type Space struct {
	blockSize  int
	blockShift uint
	// A block no wider than a page lies on page b>>narrow (wide is 0);
	// a wider one spans the 1<<wide pages from b<<wide.
	narrow, wide uint8

	slab  Slab // data and dirty: one pooled buffer
	data  []byte
	tags  []Access
	dirty PageMap

	// ver counts effective tag transitions. The access fast path in core
	// caches a validated block range keyed on this counter: any tag change
	// anywhere in the space invalidates the cache.
	ver uint32

	// OnTag, when non-nil, observes every effective tag transition (old
	// != new) before it is applied. The runtime wires it to the event
	// tracer; it must not touch the space. Nil costs one check per
	// SetTag, keeping the untraced path as fast as before.
	OnTag func(b int, old, new Access)
}

// NewSpace allocates a space of size bytes with the given coherence block
// size. size must be a multiple of blockSize; blockSize must be a power of
// two (the paper uses 64, 256, 1024 and 4096).
func NewSpace(size, blockSize int) *Space {
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		panic(fmt.Sprintf("mem: block size %d is not a power of two", blockSize))
	}
	if size <= 0 || size%blockSize != 0 {
		panic(fmt.Sprintf("mem: size %d is not a positive multiple of block size %d", size, blockSize))
	}
	nblocks := size / blockSize
	s := spacePool.Get()
	if s == nil {
		s = new(Space)
	}
	shift := bits.TrailingZeros(uint(blockSize))
	s.blockSize = blockSize
	s.blockShift = uint(shift)
	s.narrow, s.wide = uint8(max(pageShift-shift, 0)), uint8(max(shift-pageShift, 0))
	s.slab = newSlab(spaceSlabs, size)
	s.data, s.dirty = s.slab.Data, s.slab.Pages
	// Recycled tags are all-zero over their whole capacity (see Release), so
	// they can be cut afresh for this geometry.
	if cap(s.tags) < nblocks {
		s.tags = make([]Access, nblocks)
	}
	s.tags = s.tags[:nblocks]
	return s
}

// spacePool recycles the Space structs and their tags across machine runs;
// the bytes come from spaceSlabs. A pooled Space is indistinguishable
// from a fresh one — its tags are all-zero over their whole capacity,
// whatever size and block size it is next handed out at — and Release keeps
// that at the cost of the pages the run dirtied, not of the heap it reserved.
var spacePool = NewKept[*Space]()

// Release zeroes the space and returns its slab and itself to their pools
// for the next run. The caller must not touch the space afterwards.
func (s *Space) Release() {
	s.zeroTags()
	s.slab.Release()
	s.data, s.dirty = nil, nil
	s.ver = 0
	s.OnTag = nil
	spacePool.Put(s)
}

// zeroTags clears the tags of every dirty page. Clean pages' are NoAccess
// already.
func (s *Space) zeroTags() {
	for lo, hi := range s.dirty.Runs(len(s.data)) {
		clear(s.tags[lo>>s.blockShift : hi>>s.blockShift])
	}
}

// zero returns the space to the all-clean state: tags and data of every
// dirty page cleared, then the map itself.
func (s *Space) zero() {
	s.zeroTags()
	s.slab.zero()
}

// Size returns the space size in bytes.
func (s *Space) Size() int { return len(s.data) }

// BlockSize returns the coherence granularity in bytes.
func (s *Space) BlockSize() int { return s.blockSize }

// NumBlocks returns the number of coherence blocks.
func (s *Space) NumBlocks() int { return len(s.tags) }

// BlocksIn returns the inclusive block range [first, last] covering the byte
// range [addr, addr+n). n must be positive.
func (s *Space) BlocksIn(addr, n int) (first, last int) {
	if n <= 0 {
		panic(fmt.Sprintf("mem: BlocksIn with n=%d", n))
	}
	return addr >> s.blockShift, (addr + n - 1) >> s.blockShift
}

// Tag returns block b's access tag.
func (s *Space) Tag(b int) Access { return s.tags[b] }

// SetTag sets block b's access tag.
func (s *Space) SetTag(b int, a Access) {
	if old := s.tags[b]; old != a {
		s.ver++
		if s.wide != 0 || s.OnTag != nil {
			s.setTagSlow(b, a)
		} else if old == NoAccess {
			// The common case costs one store over the tag's own, and
			// only on the way out of NoAccess: a tag that is anything
			// else sits on a page already marked.
			s.markNarrow(b)
		}
	}
	s.tags[b] = a
}

// setTagSlow is SetTag's transition path for a block that spans several
// pages or a space with an observer. Kept out of line so that the common
// case does not spill SetTag's arguments around two calls.
//
//go:noinline
func (s *Space) setTagSlow(b int, a Access) {
	s.mark(b)
	if s.OnTag != nil {
		s.OnTag(b, s.tags[b], a)
	}
}

// mark marks the pages of block b dirty: every page it spans, so the pages
// of a wide block are always dirty or clean together and a run of dirty
// pages begins and ends on block boundaries.
func (s *Space) mark(b int) {
	if s.wide == 0 {
		s.markNarrow(b)
		return
	}
	n := 1 << s.wide
	for p := b * n; p < (b+1)*n; p++ {
		s.dirty[p] = 1
	}
}

// markNarrow marks the one page of a block no wider than a page.
func (s *Space) markNarrow(b int) { s.dirty[b>>(s.narrow&63)] = 1 }

// Ver returns the tag-transition counter. It changes whenever any block's
// effective tag changes, so an unchanged Ver means every previously
// validated block range is still valid.
func (s *Space) Ver() uint32 { return s.ver }

// Dirty returns the space's dirty-page map. Read-only: marking is the
// space's own business.
func (s *Space) Dirty() PageMap { return s.dirty }

// BlockData returns block b's bytes as a sub-slice of the backing store,
// and marks its pages dirty. Mutations bypass access control; the caller
// (the protocol layer) is responsible for tag discipline.
func (s *Space) BlockData(b int) []byte {
	s.mark(b)
	lo := b << s.blockShift
	return s.data[lo : lo+s.blockSize : lo+s.blockSize]
}

// Bytes returns the byte range [addr, addr+n) as a sub-slice. It is the
// application access path and marks nothing: the core hands the range out
// only after every block in it passed its tag check, and a block's tag
// cannot have left NoAccess without marking its page.
func (s *Space) Bytes(addr, n int) []byte { return s.data[addr : addr+n : addr+n] }

// SpaceState is a deep snapshot of one node's space: its dirty map, the
// data and tags of the dirty pages (everything else is zero and NoAccess by
// the space's invariant), and the tag-version counter (restored so the
// core's validated-span cache keys stay coherent across a fork).
type SpaceState struct {
	size       int
	blockShift uint
	// buf is the dirty map followed by the data of each run of dirty
	// pages, ascending; tags holds the same runs' tags.
	buf  []byte
	tags []Access
	ver  uint32
}

func (st *SpaceState) pages() PageMap { return PageMap(st.buf[:NumPages(st.size)]) }

// State captures a deep copy of the space's dirty pages and their tags.
func (s *Space) State() SpaceState {
	n := 0
	for lo, hi := range s.dirty.Runs(len(s.data)) {
		n += hi - lo
	}
	st := SpaceState{
		size:       len(s.data),
		blockShift: s.blockShift,
		buf:        make([]byte, len(s.dirty)+n),
		tags:       make([]Access, n>>s.blockShift),
		ver:        s.ver,
	}
	at, bt := copy(st.buf, s.dirty), 0
	for lo, hi := range s.dirty.Runs(len(s.data)) {
		at += copy(st.buf[at:], s.data[lo:hi])
		bt += copy(st.tags[bt:], s.tags[lo>>s.blockShift:hi>>s.blockShift])
	}
	return st
}

// Restore overwrites the space from a snapshot taken on an identically
// sized space, adopting the snapshot's dirty map. Tags are written
// directly — no OnTag callbacks fire, since restoring is not a coherence
// transition.
func (s *Space) Restore(st SpaceState) {
	if st.size != len(s.data) || st.blockShift != s.blockShift {
		panic(fmt.Sprintf("mem: Restore of mismatched space (%d/%d bytes, %d/%d B blocks)",
			st.size, len(s.data), 1<<st.blockShift, s.blockSize))
	}
	s.zero()
	copy(s.dirty, st.pages())
	at, bt := len(s.dirty), 0
	for lo, hi := range s.dirty.Runs(len(s.data)) {
		at += copy(s.data[lo:hi], st.buf[at:])
		bt += copy(s.tags[lo>>s.blockShift:hi>>s.blockShift], st.tags[bt:])
	}
	s.ver = st.ver
}

const intBytes = 8

// Fold implements digest.Folder: the snapshot's logical contents — every
// data byte in address order, then every tag (intBytes bytes each), then
// the tag-transition counter — exactly as a full copy of the space would,
// so a dirty page that is still all-zero digests like a clean one and the
// result does not depend on which pages happen to be marked.
func (st *SpaceState) Fold(d *digest.Digest) {
	pages := st.pages()
	at, end := len(pages), 0
	for lo, hi := range pages.Runs(st.size) {
		d.Zeros(lo - end)
		d.Bytes(st.buf[at : at+hi-lo])
		at, end = at+hi-lo, hi
	}
	d.Zeros(st.size - end)
	bt, end := 0, 0
	for lo, hi := range pages.Runs(st.size) {
		d.Zeros(intBytes * (lo>>st.blockShift - end))
		for _, t := range st.tags[bt : bt+(hi-lo)>>st.blockShift] {
			d.Int(int(t))
		}
		bt, end = bt+(hi-lo)>>st.blockShift, hi>>st.blockShift
	}
	d.Zeros(intBytes * (st.size>>st.blockShift - end))
	d.U64(uint64(st.ver))
}
