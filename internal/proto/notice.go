package proto

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
}

// NewLog returns an empty log for n nodes.
func NewLog(n int) *Log { return &Log{byNode: make([][]Interval, n)} }

// Publish appends node's next interval containing the given notices and
// returns its index. Empty intervals are legal (a release with no writes
// still closes an interval).
func (l *Log) Publish(node int, notices []WriteNotice) int32 {
	idx := int32(len(l.byNode[node]) + 1)
	l.byNode[node] = append(l.byNode[node], Interval{Node: int32(node), Index: idx, Notices: notices})
	return idx
}

// Latest returns node's most recently published interval index (0 if none).
func (l *Log) Latest(node int) int32 { return int32(len(l.byNode[node])) }

// Between returns node's intervals with index in (after, upTo], i.e. the
// notices a node whose clock shows `after` needs to reach `upTo`.
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
