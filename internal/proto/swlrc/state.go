package swlrc

import "dsmsim/internal/proto"

// state is the protocol's checkpointable state: the global owner/version
// directory, every node's causality table (local version, owner hint,
// causal floor) and the per-interval write sets. In-flight installs hold
// retained messages and cannot be captured; at a barrier cut there are
// none.
type state struct {
	dir     proto.Table[swDir]    // per block: single-writer owner + version
	nodes   []proto.Table[swNode] // per node: local copy / causality state
	written []proto.Copyset       // per node: blocks written this interval
}

// CaptureState implements proto.Checkpointer.
func (p *Protocol) CaptureState() (any, error) { return proto.Capture(&p.state, p.installs.Len()) }

// RestoreState implements proto.Checkpointer.
func (p *Protocol) RestoreState(s any) error { return proto.Restore(&p.state, s) }
