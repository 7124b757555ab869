package mem

import (
	"sync"
	"sync/atomic"
)

// Slab is size bytes of shared address space and the PageMap over them, cut
// from one pooled allocation: a node's Space is built on one, and so is the
// master image (core.Heap). Whoever holds a slab marks in Pages every page of
// Data it may have written.
type Slab struct {
	Data  []byte
	Pages PageMap
	buf   []byte    // what Data and Pages are cut from
	from  *slabPool // where Release puts it
}

// slabPool recycles slabs across machine runs: a parameter sweep allocates
// each node's multi-megabyte heap copy and each run's master image once
// instead of once per run. A pooled slab is indistinguishable from a fresh
// one — buf is all-zero over its whole length, whatever size it is next cut
// to — and Release keeps that at the cost of the pages the run marked, not
// of the heap it reserved.
//
// One pool for every size, and a slab too small for the request is dropped:
// the slabs in circulation converge on the largest heap among the
// applications being run, and a small heap cut from a large slab costs
// nothing because nothing is cleared by size. Measured on the master images,
// 120 interleaved runs of all twelve applications from a cold pool: 2–4
// allocated; a pool per exact size allocated 16–18 (one per size and
// worker), and both recycle 98–99 % on a matrix that repeats. The GC empties
// a sync.Pool nobody draws from, so nothing here needs a bound.
type slabPool struct {
	store        slabStore
	hits, misses atomic.Int64
}

// slabStore is where released slabs wait: a sync.Pool, except under
// StackSlabs.
type slabStore interface {
	Get() any
	Put(any)
}

// Two pools of the one kind, because their slabs do not come back alike. A
// space's always does, when its run ends. A master image leaves with the
// Result of every single run and comes back only from a caller that says it
// is done with it (core.ReleaseImage): drawn from the spaces' pool, every
// image that left would take a slab out of circulation, the largest there
// as often as not, and the next run would allocate its replacement.
// Measured with one pool for both, ten alternating pairs against the parent
// commit: the benchmark's single-run workloads allocate more per iteration
// than with two — observed 21.9 → 23.5 MB (two pools: 21.6), lossy 12.1 →
// 11.4 (10.7).
var spaceSlabs, imageSlabs = slabPool{store: new(sync.Pool)}, slabPool{store: new(sync.Pool)}

// NewImage returns a slab of size all-zero bytes with nothing marked, for a
// run's master image.
func NewImage(size int) *Slab { return imageSlabs.get(size) }

func (p *slabPool) get(size int) *Slab {
	n := size + NumPages(size)
	s, _ := p.store.Get().(*Slab)
	if s != nil && len(s.buf) >= n {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
		s = &Slab{buf: make([]byte, n), from: p}
	}
	s.Data = s.buf[:size:size]
	s.Pages = PageMap(s.buf[size:n:n])
	return s
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
// afterwards: a stale use indexes a nil slice instead of reading another
// run's bytes.
func (s *Slab) Release() {
	s.zero()
	s.Data, s.Pages = nil, nil
	s.from.store.Put(s)
}

// PoolCounts is how many draws from a slab pool were served by a recycled
// slab and how many had to allocate one, over the life of the process.
type PoolCounts struct{ Hits, Misses int64 }

// SlabStats reports the counts of the spaces' pool and of the master images'.
func SlabStats() (spaces, images PoolCounts) {
	return PoolCounts{spaceSlabs.hits.Load(), spaceSlabs.misses.Load()},
		PoolCounts{imageSlabs.hits.Load(), imageSlabs.misses.Load()}
}

// StackSlabs is for tests: until restore is called, released slabs of both
// pools wait on plain stacks instead of in sync.Pools, and check, when
// non-nil, sees every slab, whole, as it arrives there. A test that counts
// hits then pins which slab a run may reuse — the capacity rule, every exit
// releasing — and not what the runtime chooses to retain: a sync.Pool is
// emptied by the GC, keeps its newest item where only one P looks, and
// under the race detector drops a quarter of its Puts.
func StackSlabs(check func(whole []byte)) (restore func()) {
	spaces, images := spaceSlabs.store, imageSlabs.store
	spaceSlabs.store, imageSlabs.store = &slabStack{check: check}, &slabStack{check: check}
	return func() { spaceSlabs.store, imageSlabs.store = spaces, images }
}

type slabStack struct {
	check func(whole []byte)
	mu    sync.Mutex
	free  []*Slab
}

func (st *slabStack) Get() any {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.free) == 0 {
		return nil
	}
	s := st.free[len(st.free)-1]
	st.free = st.free[:len(st.free)-1]
	return s
}

func (st *slabStack) Put(x any) {
	s := x.(*Slab)
	if st.check != nil {
		st.check(s.buf)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.free = append(st.free, s)
}
