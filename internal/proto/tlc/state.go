package tlc

import (
	"fmt"

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

// clone returns a deep copy.
func (st *state) clone() *state {
	return &state{
		dir:    st.dir.Clone(nil),
		nodes:  proto.CloneTables(st.nodes),
		pts:    append([]int64(nil), st.pts...),
		leased: proto.CloneSets(st.leased),
	}
}

// CaptureState implements proto.Checkpointer.
func (p *Protocol) CaptureState() (any, error) {
	if n := p.txns.Len(); n != 0 {
		return nil, fmt.Errorf("tlc: %d transactions in flight", n)
	}
	return p.state.clone(), nil
}

// RestoreState implements proto.Checkpointer. The snapshot is re-cloned,
// so one capture can seed any number of forks.
func (p *Protocol) RestoreState(s any) error {
	st, ok := s.(*state)
	if !ok || len(st.nodes) != len(p.nodes) {
		return fmt.Errorf("tlc: RestoreState of %T onto %d nodes", s, len(p.nodes))
	}
	p.state = *st.clone()
	return nil
}
