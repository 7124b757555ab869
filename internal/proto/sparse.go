package proto

import (
	"fmt"
	"iter"
	"reflect"

	"dsmsim/internal/digest"
	"dsmsim/internal/mem"
)

// shardSize is the number of block entries per directory shard. 256
// entries keeps a shard a few KB for typical entry types — small enough
// that a run touching a handful of blocks stays cheap, large enough
// that a dense working set costs one allocation per couple hundred
// blocks.
const shardSize = 256

// Table is a sparse, sharded per-block table: directory state is
// allocated in fixed-size shards the first time any block in the shard
// is touched, so metadata scales with the touched span of the heap
// rather than with heap size × node count. Untouched blocks are
// implicitly in the default state produced by init. Shards are never
// freed during a run, keeping steady-state access alloc-free; they are
// drawn from the pool of their entry type (PoolShards) and go back to it,
// zeroed, when the run ends (Env.ReleaseTables). A checkpoint's copy of a
// table (CopyFrom) keeps its shards: it never gives them back.
type Table[T any] struct {
	shards [][]T
	init   func(*T) // applied to every entry when its shard materialises; nil means zero value
}

// NewTable returns a table covering blocks [0, nblocks). init, if
// non-nil, establishes the default entry state (e.g. owner = -1).
func NewTable[T any](nblocks int, init func(*T)) Table[T] {
	n := (nblocks + shardSize - 1) / shardSize
	return Table[T]{shards: make([][]T, n), init: init}
}

// At returns the entry for block b, materialising its shard on first
// touch.
func (t *Table[T]) At(b int) *T {
	s := b / shardSize
	if t.shards[s] == nil {
		shard := shardPool[T]().Get(shardSize)
		if t.init != nil {
			for i := range shard {
				t.init(&shard[i])
			}
		}
		t.shards[s] = shard
	}
	return &t.shards[s][b%shardSize]
}

// CopyFrom implements digest.Copier: t becomes a deep copy of src, its
// shards drawn from the pool as At draws them. A restore thereby fills a
// fork's tables out of the pool, and the fork gives them back when it ends;
// a checkpoint's copy draws its shards there too, and keeps them.
func (t *Table[T]) CopyFrom(src any) {
	s := src.(*Table[T])
	t.init = s.init
	if len(t.shards) != len(s.shards) {
		t.shards = make([][]T, len(s.shards))
	}
	for i := range s.shards {
		if s.shards[i] == nil {
			t.shards[i] = nil
			continue
		}
		if t.shards[i] == nil {
			t.shards[i] = shardPool[T]().Get(shardSize)
		}
		digest.Copy(&t.shards[i], &s.shards[i])
	}
}

// Peek returns the entry for block b, or nil if its shard was never
// touched — meaning the block is in the default state. Peek never
// allocates, making it the right accessor for full-table scans.
func (t *Table[T]) Peek(b int) *T {
	s := b / shardSize
	if s >= len(t.shards) || t.shards[s] == nil {
		return nil
	}
	return &t.shards[s][b%shardSize]
}

// All walks the materialised entries in ascending block order. Entries of
// a materialised shard that were never written are included, in their
// default state (Fold skips those).
func (t *Table[T]) All() iter.Seq2[int, *T] {
	return func(yield func(int, *T) bool) {
		for s, shard := range t.shards {
			for i := range shard {
				if !yield(s*shardSize+i, &shard[i]) {
					return
				}
			}
		}
	}
}

// Fold implements digest.Folder: the block and digest of every entry that
// differs from the default state, ascending, so which shards happen to be
// materialised does not show.
func (t *Table[T]) Fold(d *digest.Digest) {
	var def T
	if t.init != nil {
		t.init(&def)
	}
	dflt := digest.Of(&def)
	for b, e := range t.All() {
		if h := digest.Of(e); h != dflt {
			d.Int(b)
			d.U64(h)
		}
	}
}

// Allocated returns the number of materialised shards.
func (t *Table[T]) Allocated() int {
	n := 0
	for _, s := range t.shards {
		if s != nil {
			n++
		}
	}
	return n
}

// release gives every materialised shard back to its pool, zeroed, and
// leaves the table empty: a stale use finds the default state instead of
// another run's entries.
func (t *Table[T]) release() {
	pool := shardPool[T]()
	for s, shard := range t.shards {
		if shard != nil {
			clear(shard[:cap(shard)])
			pool.Put(shard)
			t.shards[s] = nil
		}
	}
}

// recycler is a table as Env.Recycle holds it.
type recycler interface{ release() }

// Recycle has t's shards given back to their pool when env's run ends. A
// protocol calls it once for each Table it builds, with the table where it
// stays for the run (a restore copies a checkpoint into it in place).
func (e *Env) Recycle(t recycler) { e.tables = append(e.tables, t) }

// ReleaseTables gives back the shards of the home map and of every table
// handed to Recycle. The run is over: nothing reads the tables again.
func (e *Env) ReleaseTables() {
	e.Homes.moved.release()
	for _, t := range e.tables {
		t.release()
	}
	e.tables = nil
}

// shardPools holds the pool of each entry type, keyed by the type.
// PoolShards fills it during package initialization only, so runs read it
// without a lock.
var shardPools = map[reflect.Type]interface{ Counts() mem.PoolCounts }{}

// PoolShards makes the pool the shards of every Table[T] are drawn from and
// given back to. Call it once per entry type, from a package-level variable
// declaration: mem.IsolatePools reaches only the pools package
// initialization made.
func PoolShards[T any]() *mem.Pool[T] {
	p := mem.NewPool[T]()
	shardPools[reflect.TypeFor[T]()] = p
	return p
}

func shardPool[T any]() *mem.Pool[T] {
	p, ok := shardPools[reflect.TypeFor[T]()].(*mem.Pool[T])
	if !ok {
		panic(fmt.Sprintf("proto: a Table of %v has no shard pool: declare one with PoolShards", reflect.TypeFor[T]()))
	}
	return p
}

// ShardStats sums the counts of every entry type's shard pool.
func ShardStats() (c mem.PoolCounts) {
	for _, p := range shardPools {
		pc := p.Counts()
		c.Hits += pc.Hits
		c.Misses += pc.Misses
	}
	return c
}

// MemBytes reports the table's heap footprint given the per-entry size
// (spill structures inside entries are the caller's to add).
func (t *Table[T]) MemBytes(entryBytes int64) int64 {
	return int64(len(t.shards))*8 + int64(t.Allocated())*shardSize*entryBytes
}
