package hlrc

import (
	"fmt"

	"dsmsim/internal/proto"
)

// state is the protocol's checkpointable state: every node's live twins
// (streaming writers keep a refreshed twin across barriers), the per-block
// diff sequence counters, the home-write sets, early-flush notices still
// owed and the twin-storage accounting. A release in progress (outstanding
// diff acks) or an in-flight install holds live messages and cannot be
// captured; at a barrier cut neither exists. The pooled free lists are
// deliberately not captured: a fork starts with empty pools, which is
// invisible — twins are fully overwritten on creation and DiffInto output
// is content-deterministic regardless of buffer reuse. A node's maps are
// made on its first write to them: a node that never writes costs none.
type state struct {
	twins        []map[int][]byte      // per node: block → twin (persists while streaming)
	written      []map[int]int32       // per node: home blocks written this interval → seq
	seq          []map[int]int32       // per node: per-block diff sequence counter
	earlyNotices [][]proto.WriteNotice // per node: notices owed from early flushes

	// twinBytes tracks current and peak twin storage across all nodes,
	// the protocol's dominant dynamic memory cost (§7's unexamined
	// memory-utilization dimension).
	twinBytes     int64
	twinBytesPeak int64
}

// CaptureState implements proto.Checkpointer.
func (p *Protocol) CaptureState() (any, error) {
	for node, n := range p.flushAcks {
		if n != 0 || p.flushWaiting[node] {
			return nil, fmt.Errorf("hlrc: node %d mid-flush (%d acks outstanding)", node, n)
		}
	}
	return proto.Capture(&p.state, p.installs.Len())
}

// RestoreState implements proto.Checkpointer.
func (p *Protocol) RestoreState(s any) error { return proto.Restore(&p.state, s) }
