package tlc

import "dsmsim/internal/proto"

// state is the protocol's checkpointable state: the global
// owner/timestamp directory, every node's lease table and leased set, and
// the per-node logical clocks. In-flight transactions hold retained
// messages and cannot be captured; at a barrier cut there are none.
type state struct {
	dir   proto.Table[tlcDir]    // per block: exclusive owner + wts/rts
	nodes []proto.Table[tlcView] // per node: timestamps of the local copy

	pts    []int64         // per node: logical timestamp
	leased []proto.Copyset // per node: blocks held under a read lease
}

// CaptureState implements proto.Checkpointer.
func (p *Protocol) CaptureState() (any, error) { return proto.Capture(&p.state, p.txns.Len()) }

// RestoreState implements proto.Checkpointer.
func (p *Protocol) RestoreState(s any) error { return proto.Restore(&p.state, s) }
