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
// nothing because nothing is cleared by length. Measured on the master
// images, 120 interleaved runs of all twelve applications from a cold pool:
// 2–4 allocated; a pool per exact size allocated 16–18 (one per size and
// worker), and both recycle 98–99 % on a matrix that repeats. The GC empties
// a sync.Pool nobody draws from, so nothing here needs a bound.
//
// Pools are package-level variables made by NewPool, so StackSlabs reaches
// every one.
type Pool[E any] struct {
	store        store
	check        func(whole []byte) // under StackSlabs: sees every buffer Put
	hits, misses atomic.Int64
	// boxes holds the empty *[]E a buffer waits in, so that a Put in the
	// steady state allocates nothing: 1024 spaces per run at 1024 nodes.
	boxes sync.Pool
}

// store is where released buffers wait: a sync.Pool, except under
// StackSlabs.
type store interface {
	Get() any
	Put(any)
}

// pools is every Pool and Kept made, for StackSlabs and PoolTotals. It is
// filled by package initialization only.
var pools []interface {
	stack(check func(whole []byte)) (restore func())
	Counts() PoolCounts
}

// NewPool returns an empty pool. Call it from a package-level variable
// declaration.
func NewPool[E any]() *Pool[E] {
	p := &Pool[E]{store: new(sync.Pool)}
	pools = append(pools, p)
	return p
}

// Get returns n zero Es: cut from the buffer the pool hands back if that is
// at least n long, else newly allocated.
func (p *Pool[E]) Get(n int) []E {
	var buf []E
	if b, _ := p.store.Get().(*[]E); b != nil {
		buf, *b = *b, nil
		p.boxes.Put(b)
	}
	if len(buf) < n {
		p.misses.Add(1)
		return make([]E, n)
	}
	p.hits.Add(1)
	return buf[:n]
}

// Put pools a buffer Get returned, as Get returned it, once every E its
// holder wrote is zero again. The holder must not touch it afterwards.
func (p *Pool[E]) Put(buf []E) {
	buf = buf[:cap(buf)]
	if p.check != nil {
		p.check(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(len(buf))*unsafe.Sizeof(buf[0])))
	}
	b, _ := p.boxes.Get().(*[]E)
	if b == nil {
		b = new([]E)
	}
	*b = buf
	p.store.Put(b)
}

// Kept recycles whole values across machine runs with their contents: free
// lists one run fills and the next draws from, whose entries are garbage by
// contract, so clearing them would only throw the saving away. Get hands back
// a value some holder Put, or the zero value when none waits. A Kept is a
// pool like any other to StackSlabs and PoolTotals, except that StackSlabs'
// check never sees its values: they are not zero, by design.
type Kept[T any] struct {
	store        store
	hits, misses atomic.Int64
	boxes        sync.Pool // the empty *T a value waits in, as in Pool
}

// NewKept returns an empty pool of whole values. Call it from a package-level
// variable declaration.
func NewKept[T any]() *Kept[T] {
	p := &Kept[T]{store: new(sync.Pool)}
	pools = append(pools, p)
	return p
}

// Get returns a value some holder gave back, or the zero value.
func (p *Kept[T]) Get() (v T) {
	b, _ := p.store.Get().(*T)
	if b == nil {
		p.misses.Add(1)
		return v
	}
	p.hits.Add(1)
	v, *b = *b, v
	p.boxes.Put(b)
	return v
}

// Put pools v for the next Get. The holder must not touch what v refers to
// afterwards.
func (p *Kept[T]) Put(v T) {
	b, _ := p.boxes.Get().(*T)
	if b == nil {
		b = new(T)
	}
	*b = v
	p.store.Put(b)
}

// Counts reports the pool's draws so far.
func (p *Kept[T]) Counts() PoolCounts { return PoolCounts{p.hits.Load(), p.misses.Load()} }

func (p *Kept[T]) stack(func(whole []byte)) (restore func()) {
	st := p.store
	p.store = new(stack)
	return func() { p.store = st }
}

// PoolCounts is how many draws from a pool were served by a recycled buffer
// and how many had to allocate one, over the life of the process.
type PoolCounts struct{ Hits, Misses int64 }

// Counts reports the pool's draws so far.
func (p *Pool[E]) Counts() PoolCounts { return PoolCounts{p.hits.Load(), p.misses.Load()} }

// PoolTotals sums the counts of every pool: the slabs', the observers'
// tables, and the networks' endpoints, link pages and free lists.
func PoolTotals() (c PoolCounts) {
	for _, p := range pools {
		pc := p.Counts()
		c.Hits += pc.Hits
		c.Misses += pc.Misses
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
// Measured with one pool for both while every single run's image left, ten
// alternating pairs against the parent commit: the benchmark's single-run
// workloads allocated more per iteration than with two — observed 21.9 →
// 23.5 MB (two pools: 21.6), lossy 12.1 → 11.4 (10.7).
var spaceSlabs, imageSlabs = NewPool[byte](), NewPool[byte]()

// NewImage returns a slab of size all-zero bytes with nothing marked, for a
// run's master image.
func NewImage(size int) Slab { return newSlab(imageSlabs, size) }

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

// SlabStats reports the counts of the spaces' pool and of the master images'.
func SlabStats() (spaces, images PoolCounts) {
	return spaceSlabs.Counts(), imageSlabs.Counts()
}

// StackSlabs is for tests: until restore is called, the buffers released to
// every pool — the slabs, the observers' tables, the networks' endpoints,
// link pages and free lists — wait on plain stacks instead of in sync.Pools,
// and check, when non-nil, sees every one but a Kept value, whole and as
// bytes, as it arrives there. A test that counts hits then pins which
// buffer a run may reuse — the capacity rule, every exit releasing — and not
// what the runtime chooses to retain: a sync.Pool is emptied by the GC, keeps
// its newest item where only one P looks, and under the race detector drops a
// quarter of its Puts.
func StackSlabs(check func(whole []byte)) (restore func()) {
	undo := make([]func(), len(pools))
	for i, p := range pools {
		undo[i] = p.stack(check)
	}
	return func() {
		for _, u := range undo {
			u()
		}
	}
}

func (p *Pool[E]) stack(check func(whole []byte)) (restore func()) {
	st, ck := p.store, p.check
	p.store, p.check = new(stack), check
	return func() { p.store, p.check = st, ck }
}

type stack struct {
	mu   sync.Mutex
	free []any
}

func (st *stack) Get() any {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.free) == 0 {
		return nil
	}
	x := st.free[len(st.free)-1]
	st.free = st.free[:len(st.free)-1]
	return x
}

func (st *stack) Put(x any) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.free = append(st.free, x)
}
