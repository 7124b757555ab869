package mem

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Slab is size bytes of shared address space and the PageMap over them, cut
// from one pooled buffer: a node's Space is built on one, and so is the
// master image (core.Heap). Whoever holds a slab marks in Pages every page of
// Data it may have written.
type Slab struct {
	Data  []byte
	Pages PageMap
	buf   []byte      // what Data and Pages are cut from
	from  *Pool[byte] // where Release puts it
}

// List is a LIFO of idle Ts behind one mutex, shared by the process: where
// the pools below, the spaces, the tracer's rings and the engine's proc
// workers wait between machine runs. The retention rule: a list keeps what
// comes back to it, and no collection empties it, so a run after a
// collection finds what the run before gave back and a test counts the same
// hits under -race as without. A pool (Pool, Kept) drops what no run has
// drawn for keepRuns runs, so it holds the peak concurrent demand of the
// runs made lately. A list with a Bound keeps at most that many.
type List[T any] struct {
	Bound int // 0: no bound
	mu    sync.Mutex
	idle  []T
}

// Get takes the value given back last, if any waits.
func (l *List[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.idle)
	if n == 0 {
		return v, false
	}
	v, l.idle[n-1] = l.idle[n-1], v
	l.idle = l.idle[:n-1]
	return v, true
}

// Put lists v for the next Get and reports whether it did: false only on a
// list holding Bound values already, in which case v is still the caller's.
func (l *List[T]) Put(v T) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.Bound > 0 && len(l.idle) >= l.Bound {
		return false
	}
	l.idle = append(l.idle, v)
	return true
}

// Swap replaces every idle value with idle and returns those it replaced.
func (l *List[T]) Swap(idle []T) []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.idle
	l.idle = idle
	return old
}

// keepRuns is how many runs, each one master image drawn (NewImage), a
// pooled value waits undrawn before it is dropped: more than the benchmark's
// largest matrix (35 runs), so a buffer one protocol draws waits for its next
// turn, and a 1024-node run's spaces leave once a process goes back to 16.
const keepRuns = 64

var runs atomic.Int64 // master images drawn: the clock pooled values age on

// Pool recycles buffers of E across machine runs: a parameter sweep allocates
// each node's multi-megabyte heap copy, each run's master image, each
// protocol table's directory shards, each observer's tables and each
// network's endpoints and link pages once instead of once per run. A pooled
// buffer is indistinguishable from a fresh one — all-zero over its whole
// length, whatever length it is next cut to — and whoever gives one back
// keeps that at the cost of what it wrote, not of what it drew.
//
// One pool for every length, and a buffer too short for the request is
// dropped: the buffers in circulation converge on the largest request among
// the runs being made, and a short request cut from a long buffer costs
// nothing because nothing is cleared by length. Get drops every short
// buffer on its way to one that fits, so long buffers do not multiply.
//
// Pools are package-level variables made by NewPool, so IsolatePools
// reaches every one.
type Pool[E any] struct {
	counted[[]E]
	check func(whole []byte) // under IsolatePools: sees every buffer Put
}

// counted is a pool's list of values and the count of its draws.
type counted[T any] struct {
	list         List[aged[T]]
	hits, misses atomic.Int64
	size         func(T) int // a waiting value's bytes; nil: not counted
}

type aged[T any] struct {
	v  T
	at int64 // runs when v came back
}

func (c *counted[T]) put(v T) { c.list.Put(aged[T]{v, runs.Load()}) }

// age drops the values that came back before run since began: the bottom of
// the list, under everything given back after them.
func (c *counted[T]) age(since int64) {
	l := &c.list
	l.mu.Lock()
	defer l.mu.Unlock()
	k := 0
	for k < len(l.idle) && l.idle[k].at < since {
		k++
	}
	n := copy(l.idle, l.idle[k:])
	clear(l.idle[n:])
	l.idle = l.idle[:n]
}

// Counts reports the pool's draws so far and what waits in it now.
func (c *counted[T]) Counts() PoolCounts {
	l := &c.list
	l.mu.Lock()
	defer l.mu.Unlock()
	n := PoolCounts{c.hits.Load(), c.misses.Load(), int64(len(l.idle)), 0}
	if c.size != nil {
		for _, e := range l.idle {
			n.IdleBytes += int64(c.size(e.v))
		}
	}
	return n
}

func (c *counted[T]) isolate(func(whole []byte)) (restore func()) {
	kept := c.list.Swap(nil)
	return func() { c.list.Swap(kept) }
}

// pools is every Pool and Kept made, for NewImage, IsolatePools and
// PoolTotals. It is filled by package initialization only.
var pools []interface {
	age(since int64)
	isolate(check func(whole []byte)) (restore func())
	Counts() PoolCounts
}

// NewPool returns an empty pool. Call it from a package-level variable
// declaration.
func NewPool[E any]() *Pool[E] {
	p := new(Pool[E])
	p.size = func(buf []E) int { return len(buf) * int(unsafe.Sizeof(*new(E))) }
	pools = append(pools, p)
	return p
}

// Get returns n zero Es: cut from the newest buffer at least n long, every
// newer one being dropped, or newly allocated once the pool is empty.
func (p *Pool[E]) Get(n int) []E {
	for {
		e, ok := p.list.Get()
		if !ok {
			p.misses.Add(1)
			return make([]E, n)
		}
		if len(e.v) >= n {
			p.hits.Add(1)
			return e.v[:n]
		}
	}
}

// Put pools a buffer Get returned, as Get returned it, once every E its
// holder wrote is zero again. The holder must not touch it afterwards.
func (p *Pool[E]) Put(buf []E) {
	buf = buf[:cap(buf)]
	if p.check != nil {
		p.check(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(len(buf))*unsafe.Sizeof(buf[0])))
	}
	p.put(buf)
}

func (p *Pool[E]) isolate(check func(whole []byte)) (restore func()) {
	undo, ck := p.counted.isolate(nil), p.check
	p.check = check
	return func() { undo(); p.check = ck }
}

// Kept recycles whole values across machine runs with their contents: free
// lists one run fills and the next draws from, whose entries are garbage by
// contract, so clearing them would only throw the saving away. Get hands back
// a value some holder Put, or the zero value when none waits. A Kept is a
// pool like any other to IsolatePools and PoolTotals, except that
// IsolatePools' check never sees its values: they are not zero, by design.
type Kept[T any] struct{ counted[T] }

// NewKept returns an empty pool of whole values. Call it from a package-level
// variable declaration.
func NewKept[T any]() *Kept[T] {
	p := new(Kept[T])
	pools = append(pools, p)
	return p
}

// Get returns a value some holder gave back, or the zero value.
func (p *Kept[T]) Get() T {
	e, ok := p.list.Get()
	if ok {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
	}
	return e.v
}

// Put pools v for the next Get. The holder must not touch what v refers to
// afterwards.
func (p *Kept[T]) Put(v T) { p.put(v) }

// PoolCounts is how many draws from a pool were served by a recycled buffer
// and how many had to allocate one, over the life of the process, and how
// many buffers wait in it now and their bytes (a Kept's values count none).
type PoolCounts struct{ Hits, Misses, Idle, IdleBytes int64 }

// PoolTotals sums the counts of every pool: the slabs', the spaces', the
// observers' tables, and the networks' endpoints, link pages and free lists.
func PoolTotals() (c PoolCounts) {
	for _, p := range pools {
		d := p.Counts()
		c = PoolCounts{c.Hits + d.Hits, c.Misses + d.Misses, c.Idle + d.Idle, c.IdleBytes + d.IdleBytes}
	}
	return c
}

// Two slab pools, because their slabs do not come back alike. A space's
// always does, when its run ends, and so does the image of a verified run
// (core.VerifyAndRelease) and of every sweep run. The image of an unverified
// single run leaves with its Result and comes back only from a caller that
// says it is done with it (core.ReleaseImage): drawn from the spaces' pool,
// every image that left would take a slab out of circulation, the largest
// there as often as not, and the next run would allocate its replacement.
var spaceSlabs, imageSlabs = NewPool[byte](), NewPool[byte]()

// NewImage returns a run's all-zero, unmarked master image and ages the pools.
func NewImage(size int) Slab {
	since := runs.Add(1) - keepRuns
	for _, p := range pools {
		p.age(since)
	}
	return newSlab(imageSlabs, size)
}

func newSlab(from *Pool[byte], size int) Slab {
	n := size + NumPages(size)
	buf := from.Get(n)
	return Slab{Data: buf[:size:size], Pages: PageMap(buf[size:n:n]), buf: buf, from: from}
}

// zero returns the slab to the all-zero state: the marked pages, then the
// map. Unmarked pages are zero already.
func (s *Slab) zero() {
	for lo, hi := range s.Pages.Runs(len(s.Data)) {
		clear(s.Data[lo:hi])
	}
	clear(s.Pages)
}

// Release zeroes the slab and pools it for the next run. The slab is empty
// afterwards, and releasing it again does nothing: a stale use indexes a nil
// slice instead of reading another run's bytes.
func (s *Slab) Release() {
	if s.buf == nil {
		return
	}
	s.zero()
	s.from.Put(s.buf)
	*s = Slab{}
}

// SlabStats reports the counts of the spaces' slabs, of the Space structs
// (one of each per space) and of the master images.
func SlabStats() (spaces, structs, images PoolCounts) {
	return spaceSlabs.Counts(), spacePool.Counts(), imageSlabs.Counts()
}

// IsolatePools is for tests that need a cold start or every returned buffer
// checked: until restore is called, every pool starts empty, and check, when
// non-nil, sees every buffer but a Kept value, whole and as bytes, as it
// comes back. At restore each pool drops what came back meanwhile and gets
// its own values again.
func IsolatePools(check func(whole []byte)) (restore func()) {
	undo := make([]func(), len(pools))
	for i, p := range pools {
		undo[i] = p.isolate(check)
	}
	return func() {
		for _, u := range undo {
			u()
		}
	}
}
