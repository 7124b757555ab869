package swlrc

import (
	"fmt"

	"dsmsim/internal/digest"
	"dsmsim/internal/proto"
)

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
func (p *Protocol) CaptureState() (any, error) {
	if n := p.installs.Len(); n != 0 {
		return nil, fmt.Errorf("swlrc: %d installs in flight", n)
	}
	return digest.Clone(&p.state), nil
}

// RestoreState implements proto.Checkpointer.
func (p *Protocol) RestoreState(s any) error {
	st, ok := s.(*state)
	if !ok || len(st.nodes) != len(p.nodes) {
		return fmt.Errorf("swlrc: RestoreState of %T onto %d nodes", s, len(p.nodes))
	}
	digest.Copy(&p.state, st)
	return nil
}
