package core_test

import (
	"io"
	"runtime"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/faults"
	"dsmsim/internal/sim"
)

// TestPerNodeAllocCeiling1024 pins the host objects one node costs: the
// mallocs of a whole LU run at 1024 nodes under sc (machine build, 1024
// coroutines, the run, teardown), divided by the node count. Measured 18.0:
// 12 for the proc's coroutine (iter.Pull's state and closures, see
// sim.TestProcCreationAllocCeiling), 1 for its body, and the rest split
// over the space's slabs, first-use message and buffer pool misses, the
// endpoint's queue and a fresh g. Everything else per-node comes out of
// slabs — buildRun's, and the network's one link table, whose FIFO clamps
// are pages cut from a few chunks, not an object per endpoint; a `&T{}`
// creeping back into the node loop adds a whole object per node and
// breaks the slack.
//
// The guard lives here rather than beside the other allocation tests in
// alloc_test.go (package core) because apps imports core.
func TestPerNodeAllocCeiling1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node run skipped in -short mode")
	}
	const nodes, ceiling = 1024, 20.5
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

// TestObserverAllocCeiling pins the contract that an observer's per-event
// path allocates nothing: a whole LU run at 16 nodes under hlrc with 256 B
// blocks may cost at most 1.25x the mallocs of the same run with observers
// off, with either trace sink or with the critical-path profiler on.
// Measured 1.01x (line), 1.02x (JSON) and 1.08x (critpath): the Tracer, its
// bufio.Writer and encode buffer, and the profiler's record chunks and
// report. One allocation per traced event would be 13x — the run's trace
// has 12,304 events, and observers off it costs 1,035 mallocs.
func TestObserverAllocCeiling(t *testing.T) {
	entry, err := apps.Get("lu")
	if err != nil {
		t.Fatal(err)
	}
	mallocs := func(cfg core.Config) float64 {
		cfg.Nodes, cfg.BlockSize, cfg.Protocol = 16, 256, core.HLRC
		m, err := core.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() uint64 {
			app := entry.New(apps.Small)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := m.Run(app); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		run() // warm the space pool every run shares
		return float64(run())
	}
	off := mallocs(core.Config{})
	for _, obs := range []struct {
		name string
		cfg  core.Config
	}{
		{"Trace", core.Config{Trace: io.Discard}},
		{"TraceJSON", core.Config{TraceJSON: io.Discard}},
		{"CritPath", core.Config{CritPath: true}},
	} {
		on := mallocs(obs.cfg)
		t.Logf("%s: %.0f mallocs, %.3fx the %.0f with observers off", obs.name, on, on/off, off)
		if on > 1.25*off {
			t.Errorf("%s on costs %.0f mallocs, %.2fx the %.0f with observers off; ceiling 1.25x", obs.name, on, on/off, off)
		}
	}
}

// TestFaultedRunAllocCeiling pins the contract that the reliable path costs
// no garbage: a whole 16-node run at 64 B under the lossy benchmark's plan
// (1 % drop, 0.5 % duplicate, 20 µs jitter), where every one of its ten to
// thirty thousand messages takes the ARQ layer, may malloc at most 400
// objects more than the same run fault-free — the endpoints' per-link
// tables, the frame slabs, the timeout lane and the deeper pools. Measured
// +12 to +114; with a heap frame per send it was +12,893 to +29,250.
func TestFaultedRunAllocCeiling(t *testing.T) {
	plan := faults.NewPlan(faults.Drop(0.01), faults.Duplicate(0.005),
		faults.Jitter(20*sim.Microsecond), faults.Seed(1))
	for _, app := range []string{"ocean-rowwise", "lu"} {
		entry, err := apps.Get(app)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range []string{core.SC, core.HLRC} {
			mallocs := func(plan *faults.Plan) int64 {
				m, err := core.NewMachine(core.Config{Nodes: 16, BlockSize: 64, Protocol: proto, Faults: plan})
				if err != nil {
					t.Fatal(err)
				}
				run := func() int64 {
					a := entry.New(apps.Small)
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					if _, err := m.Run(a); err != nil {
						t.Fatal(err)
					}
					runtime.ReadMemStats(&after)
					return int64(after.Mallocs - before.Mallocs)
				}
				run() // warm the space pool every run shares
				return run()
			}
			clean, faulted := mallocs(nil), mallocs(plan)
			t.Logf("%s/%s/64: %d mallocs fault-free, %+d under the plan", app, proto, clean, faulted-clean)
			if faulted > clean+400 {
				t.Errorf("%s/%s/64: %d mallocs under the fault plan, %d fault-free: %+d, ceiling +400",
					app, proto, faulted, clean, faulted-clean)
			}
		}
	}
}
