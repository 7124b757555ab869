package core_test

import (
	"io"
	"runtime"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/faults"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
)

// TestPerNodeAllocCeiling1024 pins the host objects one node costs: the
// mallocs of a whole warm run at 1024 nodes (machine build, 1024 procs, the
// run, teardown), divided by the node count, for lu and fft under every
// registered protocol. Measured 0.28–0.89 for lu and at most 1.00 for fft:
// nothing is made per node any more — the copysets' pages, the parked
// transactions, the pools' own bookkeeping are spread over the nodes. A
// warm lu run read sc 1.31, dc 1.30, swlrc 8.28, hlrc 10.79 and tlc 2.29
// while every proc had its own body closure, every node's interval array
// grew afresh in each LRC run, hlrc made three maps per node and swlrc and
// tlc a shard index per node; 14.9 under sc while every proc made its own
// iter.Pull coroutine (12 objects, see sim.TestProcCreationAllocCeiling)
// and every endpoint grew its own service queue, and 17.9 before that,
// while each run grew its own message and buffer free lists. Everything
// per-node comes out of what the run before gave back — the procs' workers
// off the sim's idle list, the spaces' slabs, the endpoints' slab and queue
// arrays, the interval log, and the network's one link table, whose FIFO
// clamps are pages cut from a few chunks, not an object per endpoint — or
// out of one array cut per run; a `&T{}` creeping back into the node loop
// adds a whole object per node. The pools keep what comes back to them
// under -race as without, so the reading there is the same.
//
// The guard lives here rather than beside the other allocation tests in
// alloc_test.go (package core) because apps imports core.
func TestPerNodeAllocCeiling1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node runs skipped in -short mode")
	}
	const nodes, ceiling = 1024, 1.5
	for _, protocol := range proto.Names() {
		for _, name := range []string{"lu", "fft"} {
			entry, err := apps.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewMachine(core.Config{Nodes: nodes, BlockSize: 4096, Protocol: protocol})
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
			mallocs() // warm the pools every run shares
			perNode := float64(mallocs()) / nodes
			t.Logf("%s under %s: %.2f mallocs per node", name, protocol, perNode)
			if perNode > ceiling {
				t.Errorf("one %s run at %d nodes under %s cost %.2f mallocs per node, ceiling %.1f", name, nodes, protocol, perNode, ceiling)
			}
		}
	}
}

// TestObserverAllocCeiling pins two contracts on the observed benchmark
// workload's applications at 16 nodes under hlrc with 256 B blocks. An
// observer's per-event path allocates nothing: a whole run may cost at most
// 1.25x the mallocs of the same run with observers off, with either trace
// sink, the sharing profiler, the critical-path profiler or all four
// observers on. And an observer gives back what it draws: once the pools are
// warm, a run with the trace, the sharing profiler or the critical-path
// profiler on may cost at most 1.10x the bytes. The sampler is exempt from
// the bytes, because its series is output. Measured: at most 1.06x the
// mallocs alone and 1.14x all on, 1.21x in lu's row when the 1024-node test
// ran first (1.23x at the commit before procs ran on recycled workers);
// 1.00–1.03x the bytes. One allocation per
// traced event would be 28x the mallocs — lu's trace has 12,304 events, and
// observers off it costs about 460 mallocs; painting the critical path with
// an Arg slice per span read 1.55x in lu's all-observers row, and the
// critical-path report's map of one heap object per path block (63 in lu)
// 1.32x; and with their tables and record chunks allocated afresh per run
// the profilers read 1.35–2.10x the bytes.
func TestObserverAllocCeiling(t *testing.T) {
	const mallocCeiling, byteCeiling = 1.25, 1.10
	type cost struct{ mallocs, bytes float64 }
	measure := func(entry apps.Entry, cfg core.Config) cost {
		cfg.Nodes, cfg.BlockSize, cfg.Protocol = 16, 256, core.HLRC
		m, err := core.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() cost {
			app := entry.New(apps.Small)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := m.Run(app); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return cost{float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)}
		}
		run() // warm the pools every run shares
		return run()
	}
	all := core.Config{Trace: io.Discard, ShareProfile: true, CritPath: true,
		SampleEvery: 100 * sim.Microsecond}
	for _, name := range []string{"lu", "ocean-rowwise", "volrend-original"} {
		entry, err := apps.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		off := measure(entry, core.Config{})
		for _, obs := range []struct {
			name  string
			cfg   core.Config
			bytes bool // held to the bytes ceiling
		}{
			{"Trace", core.Config{Trace: io.Discard}, true},
			{"ShareProfile", core.Config{ShareProfile: true}, true},
			{"CritPath", core.Config{CritPath: true}, true},
			{"all", all, false},
		} {
			on := measure(entry, obs.cfg)
			t.Logf("%s/%s: %.0f mallocs, %.3fx the %.0f with observers off; %.0f bytes, %.3fx the %.0f",
				name, obs.name, on.mallocs, on.mallocs/off.mallocs, off.mallocs, on.bytes, on.bytes/off.bytes, off.bytes)
			if on.mallocs > mallocCeiling*off.mallocs {
				t.Errorf("%s/%s on costs %.0f mallocs, %.2fx the %.0f with observers off; ceiling %.2fx",
					name, obs.name, on.mallocs, on.mallocs/off.mallocs, off.mallocs, mallocCeiling)
			}
			if obs.bytes && on.bytes > byteCeiling*off.bytes {
				t.Errorf("%s/%s on costs %.0f bytes, %.2fx the %.0f with observers off; ceiling %.2fx",
					name, obs.name, on.bytes, on.bytes/off.bytes, off.bytes, byteCeiling)
			}
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
