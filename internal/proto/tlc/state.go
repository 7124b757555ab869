package tlc

import (
	"fmt"

	"dsmsim/internal/digest"
	"dsmsim/internal/proto"
)

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
func (p *Protocol) CaptureState() (any, error) {
	if n := p.txns.Len(); n != 0 {
		return nil, fmt.Errorf("tlc: %d transactions in flight", n)
	}
	return digest.Clone(&p.state), nil
}

// RestoreState implements proto.Checkpointer.
func (p *Protocol) RestoreState(s any) error {
	st, ok := s.(*state)
	if !ok || len(st.nodes) != len(p.nodes) {
		return fmt.Errorf("tlc: RestoreState of %T onto %d nodes", s, len(p.nodes))
	}
	digest.Copy(&p.state, st)
	return nil
}
