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

// AddToDigest implements proto.Digestable.
func (st *state) AddToDigest(d *proto.Digest) {
	for b, e := range st.dir.All() {
		if e.owner >= 0 || e.wts != 0 || e.rts != 0 {
			d.Int(b)
			d.I64(int64(e.owner))
			d.I64(e.wts)
			d.I64(e.rts)
		}
	}
	for i := range st.nodes {
		for b, v := range st.nodes[i].All() {
			if v.wts != 0 || v.rts != 0 {
				d.Int(i)
				d.Int(b)
				d.I64(v.wts)
				d.I64(v.rts)
			}
		}
		d.I64(st.pts[i])
		st.leased[i].AddToDigest(d)
	}
}
