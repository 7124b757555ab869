package swlrc

import (
	"fmt"

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

// clone returns a deep copy.
func (st *state) clone() *state {
	return &state{
		dir:     st.dir.Clone(nil),
		nodes:   proto.CloneTables(st.nodes),
		written: proto.CloneSets(st.written),
	}
}

// CaptureState implements proto.Checkpointer.
func (p *Protocol) CaptureState() (any, error) {
	if n := p.installs.Len(); n != 0 {
		return nil, fmt.Errorf("swlrc: %d installs in flight", n)
	}
	return p.state.clone(), nil
}

// RestoreState implements proto.Checkpointer. The snapshot is re-cloned,
// so one capture can seed any number of forks.
func (p *Protocol) RestoreState(s any) error {
	st, ok := s.(*state)
	if !ok || len(st.nodes) != len(p.nodes) {
		return fmt.Errorf("swlrc: RestoreState of %T onto %d nodes", s, len(p.nodes))
	}
	p.state = *st.clone()
	return nil
}

// AddToDigest implements proto.Digestable.
func (st *state) AddToDigest(d *proto.Digest) {
	for b, e := range st.dir.All() {
		if e.owner >= 0 || e.version != 0 {
			d.Int(b)
			d.I64(int64(e.owner))
			d.I64(int64(e.version))
		}
	}
	for i := range st.nodes {
		for b, v := range st.nodes[i].All() {
			if v.localVer != 0 || v.lastKnown >= 0 || v.required != 0 {
				d.Int(i)
				d.Int(b)
				d.I64(int64(v.localVer))
				d.I64(int64(v.lastKnown))
				d.I64(int64(v.required))
			}
		}
		st.written[i].AddToDigest(d)
	}
}
