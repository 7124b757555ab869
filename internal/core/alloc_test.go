package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"dsmsim/internal/mem"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
)

// TestAccessNoFaultZeroAlloc pins the validated-span fast path: once a
// block has been validated and no tag in the space has changed, repeated
// accesses to it must not allocate (and must not fault). The measurement
// runs inside the app's proc body, where access is ordinarily called.
// The matrix covers both observers: the sharing profiler and the
// critical-path profiler, each off (nil hook fields) and on.
func TestAccessNoFaultZeroAlloc(t *testing.T) {
	for _, proto := range proto.Names() {
		for _, obs := range []struct {
			name           string
			prof, critpath bool
		}{{"", false, false}, {"/profiled", true, false}, {"/critpath", false, true}} {
			proto, obs := proto, obs
			name := proto + obs.name
			t.Run(name, func(t *testing.T) {
				var addr int
				var reads, writes float64
				app := &testApp{
					name: "allocprobe",
					heap: 4096,
					setup: func(h *Heap) {
						addr = h.AllocF64s(8)
					},
					run: func(c *Ctx) {
						// Fault the block in once for read and write.
						c.WriteF64(addr, 1.0)
						_ = c.ReadF64(addr)
						var sink float64
						reads = testing.AllocsPerRun(200, func() {
							sink += c.ReadF64(addr)
						})
						writes = testing.AllocsPerRun(200, func() {
							c.WriteF64(addr, sink)
						})
					},
					verify: func(h *Heap) error { return nil },
				}
				m, err := NewMachine(Config{
					Nodes: 1, BlockSize: 1024, Protocol: proto,
					Limit:        100 * sim.Second,
					ShareProfile: obs.prof, CritPath: obs.critpath,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(app); err != nil {
					t.Fatal(err)
				}
				if reads != 0 {
					t.Errorf("no-fault ReadF64 allocated %.1f per call, want 0", reads)
				}
				if writes != 0 {
					t.Errorf("no-fault WriteF64 allocated %.1f per call, want 0", writes)
				}
			})
		}
	}
}

// TestBarrierEpisodeAllocLinear pins the host cost of a steady-state
// barrier episode under hlrc to O(nodes) bytes. Every node dirties its own
// block each episode, so every release ships nodes-1 non-empty intervals;
// copying them (or the arrival clocks) per receiver makes an episode
// O(nodes²): 16x the bytes at 4x the nodes instead of 4x.
func TestBarrierEpisodeAllocLinear(t *testing.T) {
	// Every measured run draws the slabs the run before gave back: a slab
	// allocated in the short run and not in the long one is larger than the
	// episodes in between.
	run := func(nodes, episodes int) uint64 {
		var base int
		app := &testApp{
			name:  "barrierprobe",
			heap:  nodes * 1024,
			setup: func(h *Heap) { base = h.AllocPage(nodes * 1024) },
			run: func(c *Ctx) {
				for e := 0; e < episodes; e++ {
					c.WriteI64(base+c.ID()*1024, int64(e))
					c.Barrier()
				}
			},
			verify: func(h *Heap) error { return nil },
		}
		m, err := NewMachine(Config{Nodes: nodes, BlockSize: 1024, Protocol: HLRC, Limit: 100 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.Run(app); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// Machine build and warm-up cancel in the difference of two run lengths.
	perEpisode := func(nodes int) float64 {
		const short, long = 8, 40
		run(nodes, short) // fill the pool both measured runs draw from
		return (float64(run(nodes, long)) - float64(run(nodes, short))) / (long - short)
	}
	small, large := perEpisode(64), perEpisode(256)
	t.Logf("bytes per barrier episode: %.0f at 64 nodes, %.0f at 256 nodes (%.1fx)", small, large, large/small)
	if large > 6*small {
		t.Errorf("a barrier episode costs %.0f bytes at 256 nodes, %.1fx the %.0f at 64 nodes; linear is 4x", large, large/small, small)
	}
}

// TestRunBytesLinearInNodes pins the host cost of a whole run to O(nodes)
// bytes outside the spaces: a barrier-only hlrc run at 1024 nodes may
// allocate at most 2.25x what the same run at 512 nodes does (measured
// 1.96x: 4.2 MB over 2.15 MB, the network drawn from the run before). Everything a run holds per node or per link
// in use — clocks, the FIFO clamps, stats, procs — doubles with the node
// count; a table of nodes² entries quadruples. The smallest such table, a
// dense int32 vector clock per node (4 MB over 1 MB), would read 2.45x;
// the three the run once had (clocks, arrival copies, a clamp row per
// endpoint) read 2.98x.
func TestRunBytesLinearInNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node runs skipped in -short mode")
	}
	run := func(nodes int) uint64 {
		app := &testApp{
			name:  "barrierprobe",
			heap:  4096,
			setup: func(h *Heap) {},
			run: func(c *Ctx) {
				for e := 0; e < 4; e++ {
					c.Barrier()
				}
			},
			verify: func(h *Heap) error { return nil },
		}
		m, err := NewMachine(Config{Nodes: nodes, BlockSize: 4096, Protocol: HLRC, Limit: 100 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.Run(app); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// The spaces and the network come back out of the pools the run before
	// filled, so this test measures what a run allocates when every pool
	// hits.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	outsideSpaces := func(nodes int) float64 {
		run(nodes)
		return float64(run(nodes))
	}
	half, full := outsideSpaces(512), outsideSpaces(1024)
	t.Logf("bytes per run: %.0f at 512 nodes, %.0f at 1024 nodes (%.2fx)", half, full, full/half)
	if full > 2.25*half {
		t.Errorf("a barrier-only run costs %.0f bytes at 1024 nodes, %.2fx the %.0f at 512 nodes; linear is 2x", full, full/half, half)
	}
}

// TestFailedRunsReturnTheirSlabs pins that every exit of a run gives back
// what it drew from the pools, not only the one that produces a Result: a
// run that hits the virtual-time limit, one cancelled from the host, a
// prefix run that ends before its cut, and a verified run whose Verify
// fails each leave four 4 MB spaces and a 4 MB master image behind — and,
// with the profilers on, the sharing profiler's tables and the
// critical-path record chunks — and the next run must find them in the
// pools, with the network's endpoints, link pages and free lists and the
// writer sets. Each kind runs with observers off and again with the
// profilers on: both for the limit, the cancel and the failed Verify, the
// critical path alone for the prefix run, because a sharing profile cannot
// be checkpointed. Once
// warm, eight failures of each kind may draw nothing that is not pooled, and
// allocate less than one slab per failure (measured 22–29 KB: engine, procs,
// stats; ≈ 80 KB while each run built its network); dropping the slabs to
// the GC instead read 19.8 MB per failure. Each failure's master image must
// be the one the failure before it gave back.
func TestFailedRunsReturnTheirSlabs(t *testing.T) {
	const heap, nodes, failures = 4 << 20, 4, 8
	base := Config{Nodes: nodes, BlockSize: 4096, Protocol: HLRC, Limit: 100 * sim.Second}
	var cancel context.CancelFunc
	newApp := func(rounds, cancelAt int) *testApp {
		var base int
		return &testApp{
			name:  "failprobe",
			heap:  heap - 64*4096,
			setup: func(h *Heap) { base = h.AllocPage(nodes * 4096) },
			run: func(c *Ctx) {
				for e := 0; e < rounds; e++ {
					if e == cancelAt && c.ID() == 0 {
						cancel()
					}
					c.WriteI64(base+c.ID()*4096, int64(e))
					c.Compute(10 * sim.Microsecond)
					c.Barrier()
				}
			},
			verify: func(h *Heap) error { return nil },
		}
	}
	machine := func(cfg Config) *Machine {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	kinds := []struct {
		name    string
		sharing bool // profiled round: the sharing profiler beside the critical path
		fail    func(cfg Config)
	}{
		{"limit", true, func(cfg Config) {
			cfg.Limit = 200 * sim.Microsecond
			_, err := machine(cfg).Run(newApp(1000, -1))
			var limit *sim.LimitError
			if !errors.As(err, &limit) {
				t.Fatalf("err = %v, want a *sim.LimitError", err)
			}
		}},
		{"cancelled", true, func(cfg Config) {
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			_, err := machine(cfg).RunContext(ctx, newApp(1_000_000, 3))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		}},
		{"too short to fork", false, func(cfg Config) {
			_, err := machine(cfg).RunToBarrier(context.Background(), newApp(2, -1), 5)
			if err == nil || !strings.Contains(err.Error(), "finished before barrier epoch") {
				t.Fatalf("err = %v, want the run to finish before its cut", err)
			}
		}},
		{"verify fails", true, func(cfg Config) {
			app := newApp(2, -1)
			app.verify = func(*Heap) error { return errors.New("wrong image") }
			_, err := machine(cfg).RunVerified(app)
			if err == nil || !strings.Contains(err.Error(), "wrong image") {
				t.Fatalf("err = %v, want Verify's error", err)
			}
		}},
	}
	slab := float64(heap + heap/4096)
	for _, k := range kinds {
		profiled := base
		profiled.CritPath, profiled.ShareProfile = true, k.sharing
		for _, cfg := range []Config{base, profiled} {
			name := k.name
			if cfg.CritPath {
				name += ", profiled"
			}
			k.fail(cfg) // fill the pools the measured failures draw from
			drawn0 := mem.PoolTotals()
			_, _, images0 := mem.SlabStats()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < failures; i++ {
				k.fail(cfg)
			}
			runtime.ReadMemStats(&after)
			drawn := mem.PoolTotals()
			_, _, images := mem.SlabStats()
			per := float64(after.TotalAlloc-before.TotalAlloc) / failures
			t.Logf("%s: %.0f bytes per failed run (one slab is %.0f), %d draws from the pools",
				name, per, slab, drawn.Hits-drawn0.Hits)
			if misses := drawn.Misses - drawn0.Misses; misses != 0 {
				t.Errorf("%s: %d draws from the pools allocated: an earlier failure did not give back what it drew", name, misses)
			}
			if got := (mem.PoolCounts{Hits: images.Hits - images0.Hits, Misses: images.Misses - images0.Misses}); got != (mem.PoolCounts{Hits: failures}) {
				t.Errorf("%s: the master images (hits, misses) %v over %d failures; want each drawn from the pool", name, got, failures)
			}
			if per >= slab {
				t.Errorf("%s: a failed run allocates %.0f bytes, %.1f slabs of %.0f: its spaces or its image did not go back to their pools",
					name, per, per/slab, slab)
			}
		}
	}
}

// TestSecondRoundDrawsItsNetwork1024 pins that a 1024-node run builds its
// network and writer sets out of what the runs before it gave back: with one
// run and with eight in flight at once, a second round of the same hlrc runs
// draws every endpoint slab, free-list bundle, link directory and chunk and
// writer-set table — and every space and image — with no pool miss. Each run
// holds all it drew at a rendezvous after its last barrier, so a round leaves
// as many of everything in the pools as the next can draw at once. The
// writers spill (1024 nodes, 16 writing each 64 B block), and their spill
// pages go with the sets.
func TestSecondRoundDrawsItsNetwork1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node runs skipped in -short mode")
	}
	const nodes, block = 1024, 64
	m, err := NewMachine(Config{Nodes: nodes, BlockSize: block, Protocol: HLRC, Limit: 100 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	minus := func(a, b mem.PoolCounts) mem.PoolCounts {
		return mem.PoolCounts{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses}
	}
	notSlabs := func() mem.PoolCounts { // every pool's counts but the slabs'
		spaces, structs, images := mem.SlabStats()
		return minus(minus(minus(mem.PoolTotals(), spaces), structs), images)
	}
	for _, workers := range []int{1, 8} {
		round := func() (all, net mem.PoolCounts) {
			all0, net0 := mem.PoolTotals(), notSlabs()
			var held, done sync.WaitGroup
			held.Add(workers)
			done.Add(workers)
			for range workers {
				go func() {
					defer done.Done()
					app := &testApp{
						name:  "pooledprobe",
						heap:  4096,
						setup: func(h *Heap) { h.AllocPage(4096) },
						run: func(c *Ctx) {
							c.WriteI64(c.ID()%(4096/block)*block, int64(c.ID()))
							c.Barrier()
							c.Barrier()
							if c.ID() == 0 {
								held.Done()
								held.Wait()
							}
						},
						verify: func(h *Heap) error { return nil },
					}
					res, err := m.Run(app)
					if err != nil {
						t.Error(err)
						held.Done()
						return
					}
					ReleaseImage(res)
				}()
			}
			done.Wait()
			return minus(mem.PoolTotals(), all0), minus(notSlabs(), net0)
		}
		round()
		all, net := round()
		t.Logf("%d in flight: the second round drew %d buffers from the pools, %d of them the networks' and writer sets'",
			workers, all.Hits, net.Hits)
		if all.Misses != 0 {
			t.Errorf("%d in flight: the second round allocated %d of the %d buffers it drew", workers, all.Misses, all.Hits+all.Misses)
		}
		if per := net.Hits / int64(workers); net.Hits%int64(workers) != 0 || per < 5 {
			t.Errorf("%d in flight: the runs drew %d network and writer buffers, want at least 5 each (endpoints, free lists, link directory and chunk, writers)",
				workers, net.Hits)
		}
	}
}
