package proto

import "dsmsim/internal/mem"

// WriteNotice records that a block was modified during a writer's interval.
// SW-LRC additionally uses Version (the block's single-writer version
// counter) to find the up-to-date copy in one hop; HLRC uses Seq (the
// writer's per-block diff sequence number) so readers can wait at the home
// until the corresponding diff has been applied.
type WriteNotice struct {
	Block   int32
	Version int32 // SW-LRC: block version at publication
	Seq     int32 // HLRC: writer's diff sequence for this block
}

// Interval is the set of write notices one node published when it closed
// one interval (at a release or barrier). Notices is immutable once
// published, so a checkpoint's copy of the log shares it.
type Interval struct {
	Node    int32
	Index   int32         // 1-based interval number
	Notices []WriteNotice `digest:"shared"`
}

// Log is the global, append-only publication log of intervals, indexed by
// node. Intervals are immutable once appended, so the log can be shared by
// every simulated node: each node's knowledge is captured entirely by its
// vector clock, and "sending write notices" means shipping (and costing)
// the log entries between two clock values.
type Log struct {
	byNode [][]Interval

	// free is the unused tail of the chunk Publish cuts intervals' notices
	// from. It has length 0, so a digest.Copy of the log gets a tail of
	// capacity 0: a clone's first Publish starts a chunk of its own instead
	// of writing into the one its source still cuts from.
	free []WriteNotice `digest:"-"`
}

// noticeChunk is the size, in notices, of the chunks Publish allocates: a
// fixed size bounds what a run leaves unused to one chunk's tail, where
// doubling chunks read 1 % more bytes on a forked sweep, whose every fork
// starts a chunk of its own.
const noticeChunk = 256

// logs is where a run's log waits for the next run, its interval arrays
// empty but kept: an LRC run at 1024 nodes would otherwise grow every node's
// array again, 1, 2, 4, 8 … intervals.
var logs = mem.NewKept[*Log]()

// NewLog returns an empty log for n nodes, drawn from the logs the runs
// before gave back (Env.ReleaseTables).
func NewLog(n int) *Log {
	l := logs.Get()
	if l == nil {
		l = new(Log)
	}
	if cap(l.byNode) < n {
		l.byNode = make([][]Interval, n)
	}
	l.byNode = l.byNode[:n]
	return l
}

// LogStats reports the counts of the pool NewLog draws from.
func LogStats() mem.PoolCounts { return logs.Counts() }

// release empties every interval array, keeping its capacity, and pools the
// log. The notice chunks are not kept: a checkpoint's clone shares them.
func (l *Log) release() {
	for i, ivs := range l.byNode {
		clear(ivs)
		l.byNode[i] = ivs[:0]
	}
	l.free = nil
	logs.Put(l)
}

// Publish appends node's next interval containing a copy of the given
// notices and returns its index; the caller may reuse notices afterwards.
// Empty intervals are legal (a release with no writes still closes an
// interval). The copy is cut from a chunk the log allocates for many
// intervals, as a slice of capacity n, so no append to one reaches the next.
func (l *Log) Publish(node int, notices []WriteNotice) int32 {
	idx := int32(len(l.byNode[node]) + 1)
	var kept []WriteNotice
	if n := len(notices); n > 0 {
		if cap(l.free) < n {
			l.free = make([]WriteNotice, 0, max(n, noticeChunk))
		}
		kept = append(l.free, notices...)
		l.free = kept[n:]
		kept = kept[:n:n]
	}
	l.byNode[node] = append(l.byNode[node], Interval{Node: int32(node), Index: idx, Notices: kept})
	return idx
}

// Latest returns node's most recently published interval index (0 if none).
func (l *Log) Latest(node int) int32 { return int32(len(l.byNode[node])) }

// Between returns node's intervals with index in (after, upTo], i.e. the
// notices a node whose clock shows `after` needs to reach `upTo`. The slice,
// like Each's, is the log's own array: it goes back to the pool with the log
// when the run ends, so no caller keeps it past the run.
func (l *Log) Between(node int, after, upTo int32) []Interval {
	if upTo > l.Latest(node) {
		upTo = l.Latest(node)
	}
	if after >= upTo {
		return nil
	}
	return l.byNode[node][after:upTo]
}

// Each calls fn with every node's intervals in (from[node], to[node]],
// node ascending, skipping nodes with none: everything a node whose clock
// is from must be told to reach to. fn must not retain or modify the slice.
func (l *Log) Each(from, to VC, fn func([]Interval)) {
	for node := range l.byNode {
		if ivs := l.Between(node, from[node], to[node]); len(ivs) > 0 {
			fn(ivs)
		}
	}
}
