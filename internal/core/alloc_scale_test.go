package core_test

import (
	"runtime"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
)

// TestPerNodeAllocCeiling1024 pins the host objects one node costs: the
// mallocs of a whole LU run at 1024 nodes under sc (machine build, 1024
// coroutines, the run, teardown), divided by the node count. Measured 19.5:
// 12 for the proc's coroutine (iter.Pull's state and closures, see
// sim.TestProcCreationAllocCeiling), 1 for its body, and the rest split
// over the space's slabs, first-use message and buffer pool misses, the
// endpoint's queue and FIFO table and a fresh g. Everything else per-node
// in buildRun comes out of slabs; a `&T{}` creeping back into the node
// loop adds a whole object per node and breaks the 10 % slack.
//
// The guard lives here rather than beside the other allocation tests in
// alloc_test.go (package core) because apps imports core.
func TestPerNodeAllocCeiling1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node run skipped in -short mode")
	}
	const nodes, ceiling = 1024, 21.5
	entry, err := apps.Get("lu")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.Config{Nodes: nodes, BlockSize: 4096, Protocol: core.SC})
	if err != nil {
		t.Fatal(err)
	}
	mallocs := func() uint64 {
		app := entry.New(apps.Small)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.Run(app); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs() // warm the space pool every run shares
	perNode := float64(mallocs()) / nodes
	t.Logf("%.1f mallocs per node", perNode)
	if perNode > ceiling {
		t.Errorf("one LU run at %d nodes under sc cost %.1f mallocs per node, ceiling %.1f", nodes, perNode, ceiling)
	}
}
