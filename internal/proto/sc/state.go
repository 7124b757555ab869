package sc

import "dsmsim/internal/proto"

// state is the checkpointable state of the SC (or DC) protocol: the
// sharded directory with its sharer copysets, and the
// delayed-invalidation buffers when the delayed variant is running.
// Transactions cannot be captured — they hold retained messages — so
// CaptureState requires that none is in flight, which holds whenever every
// proc is blocked in a barrier.
type state struct {
	// Directory, indexed by block. owner == -1 means the home copy is
	// valid and sharers lists the remote read-only copies; otherwise the
	// single read-write copy is at owner. Entries materialise per shard
	// on first touch, so directory memory tracks the touched span of the
	// heap, not heap size (or node count — nodes that learned a migrated
	// home are recorded sparsely in proto.Homes).
	dir proto.Table[dirEntry]

	pendingInval []proto.Copyset // dc only, per node: blocks with a deferred invalidation
}

// CaptureState implements proto.Checkpointer.
func (p *Protocol) CaptureState() (any, error) { return proto.Capture(&p.state, p.txns.Len()) }

// RestoreState implements proto.Checkpointer.
func (p *Protocol) RestoreState(s any) error { return proto.Restore(&p.state, s) }
