package proto

import (
	"iter"

	"dsmsim/internal/digest"
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
// freed during a run, keeping steady-state access alloc-free.
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
		shard := make([]T, shardSize)
		if t.init != nil {
			for i := range shard {
				t.init(&shard[i])
			}
		}
		t.shards[s] = shard
	}
	return &t.shards[s][b%shardSize]
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

// MemBytes reports the table's heap footprint given the per-entry size
// (spill structures inside entries are the caller's to add).
func (t *Table[T]) MemBytes(entryBytes int64) int64 {
	return int64(len(t.shards))*8 + int64(t.Allocated())*shardSize*entryBytes
}
