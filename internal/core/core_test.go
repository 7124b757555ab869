package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
)

// testApp builds an App from closures.
type testApp struct {
	name   string
	heap   int
	setup  func(h *Heap)
	run    func(c *Ctx)
	verify func(h *Heap) error
}

func (a *testApp) Info() AppInfo        { return AppInfo{Name: a.name, HeapBytes: a.heap} }
func (a *testApp) Setup(h *Heap)        { a.setup(h) }
func (a *testApp) Run(c *Ctx)           { a.run(c) }
func (a *testApp) Verify(h *Heap) error { return a.verify(h) }

func allConfigs(nodes int) []Config {
	var out []Config
	// Semantic tests must hold for every registered protocol.
	for _, p := range proto.Names() {
		for _, g := range Granularities {
			out = append(out, Config{Nodes: nodes, BlockSize: g, Protocol: p, Limit: 100 * sim.Second})
		}
	}
	return out
}

func runAll(t *testing.T, nodes int, app App) {
	t.Helper()
	for _, cfg := range allConfigs(nodes) {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-%d", cfg.Protocol, cfg.BlockSize), func(t *testing.T) {
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunVerified(app); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLockedCounter: every node increments a shared counter under a lock.
// The final value proves mutual exclusion and write propagation along the
// lock chain under every protocol and granularity.
func TestLockedCounter(t *testing.T) {
	const nodes, iters = 4, 25
	var addr int
	app := &testApp{
		name: "counter", heap: 8192,
		setup: func(h *Heap) {
			addr = h.AllocI64s(1)
			h.I64s(addr, 1)[0] = 0
		},
		run: func(c *Ctx) {
			for i := 0; i < iters; i++ {
				c.Lock(1)
				v := c.ReadI64(addr)
				c.Compute(10 * sim.Microsecond)
				c.WriteI64(addr, v+1)
				c.Unlock(1)
			}
			c.Barrier()
		},
		verify: func(h *Heap) error {
			if got := h.I64s(addr, 1)[0]; got != nodes*iters {
				return fmt.Errorf("counter = %d, want %d", got, nodes*iters)
			}
			return nil
		},
	}
	runAll(t, nodes, app)
}

// TestMonotoneCounterReads: along a lock chain, a node must never observe
// the counter going backwards (stale reads after acquire are forbidden).
func TestMonotoneCounterReads(t *testing.T) {
	const nodes, iters = 4, 30
	var addr int
	var bad bool
	app := &testApp{
		name: "monotone", heap: 8192,
		setup: func(h *Heap) { addr = h.AllocI64s(1) },
		run: func(c *Ctx) {
			last := int64(-1)
			for i := 0; i < iters; i++ {
				c.Lock(0)
				v := c.ReadI64(addr)
				if v < last {
					bad = true
				}
				last = v + 1
				c.WriteI64(addr, v+1)
				c.Unlock(0)
				c.Compute(5 * sim.Microsecond)
			}
			c.Barrier()
		},
		verify: func(h *Heap) error {
			if bad {
				return fmt.Errorf("a node observed the counter decreasing (stale read)")
			}
			if got := h.I64s(addr, 1)[0]; got != nodes*iters {
				return fmt.Errorf("counter = %d, want %d", got, nodes*iters)
			}
			return nil
		},
	}
	runAll(t, nodes, app)
}

// TestBarrierPhases: in phase p, node i fills its segment with a
// phase-dependent pattern; after the barrier it checks a neighbour's
// segment. This exercises invalidation at barriers and the read-fetch path.
func TestBarrierPhases(t *testing.T) {
	const nodes, phases, seg = 4, 5, 64
	var base int
	var mismatch error
	app := &testApp{
		name: "phases", heap: nodes*seg*8 + 8192,
		setup: func(h *Heap) { base = h.AllocF64s(nodes * seg) },
		run: func(c *Ctx) {
			me := c.ID()
			for p := 0; p < phases; p++ {
				mine := c.F64sW(base+me*seg*8, seg)
				for j := range mine {
					mine[j] = float64(p*100000 + me*1000 + j)
				}
				c.Barrier()
				other := (me + 1 + p) % nodes
				got := c.F64sR(base+other*seg*8, seg)
				for j := range got {
					want := float64(p*100000 + other*1000 + j)
					if got[j] != want && mismatch == nil {
						mismatch = fmt.Errorf("phase %d node %d: seg[%d][%d] = %v, want %v", p, me, other, j, got[j], want)
					}
				}
				c.Barrier()
			}
		},
		verify: func(h *Heap) error { return mismatch },
	}
	runAll(t, nodes, app)
}

// TestFalseSharingMerge: all nodes write disjoint bytes of the SAME block
// region under distinct locks. HLRC must merge the concurrent diffs; SC and
// SW-LRC must serialize correctly. Every protocol must end with all writes
// present.
func TestFalseSharingMerge(t *testing.T) {
	const nodes, words = 4, 64 // 512 bytes: inside one 4K block, many 64B blocks
	var base int
	app := &testApp{
		name: "falseshare", heap: 8192,
		setup: func(h *Heap) { base = h.AllocI64s(words) },
		run: func(c *Ctx) {
			me := c.ID()
			for round := 0; round < 8; round++ {
				c.Lock(10 + me) // distinct locks: concurrent critical sections
				for w := me; w < words; w += nodes {
					c.WriteI64(base+w*8, int64(me*1000+round))
				}
				c.Unlock(10 + me)
				c.Compute(20 * sim.Microsecond)
			}
			c.Barrier()
		},
		verify: func(h *Heap) error {
			vals := h.I64s(base, words)
			for w := 0; w < words; w++ {
				want := int64((w%nodes)*1000 + 7)
				if vals[w] != want {
					return fmt.Errorf("word %d = %d, want %d (lost concurrent write)", w, vals[w], want)
				}
			}
			return nil
		},
	}
	runAll(t, nodes, app)
}

// TestSingleWriterStreamFaults checks fault-count shape on a disjoint
// streaming workload: no write faults beyond one per block per node, read
// faults shrink ~4x per granularity step (the Table 3 property).
func TestSingleWriterStreamFaults(t *testing.T) {
	const nodes = 4
	const perNode = 16 * 1024 // bytes written per node
	var base int
	mk := func() App {
		return &testApp{
			name: "stream", heap: nodes * perNode,
			setup: func(h *Heap) { base = h.AllocPage(nodes * perNode) },
			run: func(c *Ctx) {
				me := c.ID()
				mine := c.F64sW(base+me*perNode, perNode/8)
				for j := range mine {
					mine[j] = float64(j)
				}
				c.Barrier()
				// Read the right neighbour's region.
				other := (me + 1) % nodes
				sum := 0.0
				for _, v := range c.F64sR(base+other*perNode, perNode/8) {
					sum += v
				}
				_ = sum
				c.Barrier()
			},
			verify: func(h *Heap) error { return nil },
		}
	}
	for _, p := range proto.PaperNames() {
		var prevReads int64 = -1
		for _, g := range Granularities {
			m, err := NewMachine(Config{Nodes: nodes, BlockSize: g, Protocol: p, Limit: 100 * sim.Second})
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run(mk())
			if err != nil {
				t.Fatal(err)
			}
			// Each node reads one remote region: expect ≈ perNode/g read
			// faults per node (plus its own first-touch write faults).
			wantReads := int64(nodes * perNode / g)
			if res.Total.ReadFaults < wantReads || res.Total.ReadFaults > wantReads*3 {
				t.Errorf("%s/%d: read faults = %d, want ≈%d", p, g, res.Total.ReadFaults, wantReads)
			}
			if prevReads > 0 {
				ratio := float64(prevReads) / float64(res.Total.ReadFaults)
				if ratio < 2.5 || ratio > 6 {
					t.Errorf("%s/%d: read-fault ratio vs previous granularity = %.2f, want ≈4", p, g, ratio)
				}
			}
			prevReads = res.Total.ReadFaults
			// Writers touch disjoint block-aligned regions: write faults
			// are bounded by one per touched block (+1 slack for claims).
			maxWrites := int64(nodes*perNode/g) * 2
			if res.Total.WriteFaults > maxWrites {
				t.Errorf("%s/%d: write faults = %d, want ≤ %d", p, g, res.Total.WriteFaults, maxWrites)
			}
		}
	}
}

// TestSequentialBaselineHasNoFaults: the speedup numerator must be clean.
func TestSequentialBaselineHasNoFaults(t *testing.T) {
	var base int
	app := &testApp{
		name: "seqbase", heap: 64 * 1024,
		setup: func(h *Heap) { base = h.AllocF64s(1024) },
		run: func(c *Ctx) {
			v := c.F64sW(base, 1024)
			for j := range v {
				v[j] = float64(j)
			}
			c.Compute(time100us())
			c.Barrier()
		},
		verify: func(h *Heap) error { return nil },
	}
	m, err := NewMachine(Config{Sequential: true, BlockSize: 4096, Limit: 10 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunVerified(app)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.ReadFaults != 0 || res.Total.WriteFaults != 0 {
		t.Fatalf("sequential run faulted: r=%d w=%d", res.Total.ReadFaults, res.Total.WriteFaults)
	}
}

func time100us() sim.Time { return 100 * sim.Microsecond }

// TestDeterminism: identical configurations produce bit-identical results.
func TestDeterminism(t *testing.T) {
	mk := func() App {
		var base int
		return &testApp{
			name: "det", heap: 32 * 1024,
			setup: func(h *Heap) { base = h.AllocI64s(512) },
			run: func(c *Ctx) {
				me := c.ID()
				for r := 0; r < 5; r++ {
					c.Lock(me % 2)
					for w := me; w < 512; w += c.NP() {
						c.WriteI64(base+w*8, int64(me+r))
					}
					c.Unlock(me % 2)
					c.Barrier()
				}
			},
			verify: func(h *Heap) error { return nil },
		}
	}
	run := func() *Result {
		m, err := NewMachine(Config{Nodes: 4, BlockSize: 256, Protocol: HLRC, Limit: 100 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Time != b.Time || a.Total != b.Total || a.NetBytes != b.NetBytes || a.NetMsgs != b.NetMsgs {
		t.Fatalf("non-deterministic: %+v vs %+v", a.Total, b.Total)
	}
}

// TestRandomRaceFreePrograms is the core semantic property: a random
// lock-disciplined program (each word is only ever touched under its own
// lock) must, under every protocol and granularity, produce exactly the
// total of the commutative updates applied, and no node may ever observe a
// word's value moving backwards along its lock chain.
func TestRandomRaceFreePrograms(t *testing.T) {
	const nodes = 4
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			words := 16 + rand.New(rand.NewSource(seed)).Intn(48)
			ops := 40
			var base int
			var increments [][]int64 // per node, per word: total added
			var stale error
			mkRun := func(c *Ctx) {
				me := c.ID()
				rng := rand.New(rand.NewSource(seed*1000 + int64(me)))
				lastSeen := make([]int64, words)
				for i := range lastSeen {
					lastSeen[i] = -1
				}
				for op := 0; op < ops; op++ {
					w := rng.Intn(words)
					inc := int64(rng.Intn(100) + 1)
					c.Lock(w)
					v := c.ReadI64(base + w*8)
					if v < lastSeen[w] && stale == nil {
						stale = fmt.Errorf("node %d saw word %d go backwards: %d < %d", me, w, v, lastSeen[w])
					}
					if rng.Intn(4) == 0 {
						c.Compute(sim.Time(rng.Intn(50)) * sim.Microsecond)
					}
					c.WriteI64(base+w*8, v+inc)
					lastSeen[w] = v + inc
					increments[me][w] += inc
					c.Unlock(w)
					if rng.Intn(8) == 0 {
						c.Compute(sim.Time(rng.Intn(30)) * sim.Microsecond)
					}
				}
				c.Barrier()
			}
			app := &testApp{
				name: "randprog", heap: words*8 + 8192,
				setup: func(h *Heap) { base = h.AllocI64s(words) },
				run:   func(c *Ctx) { mkRun(c) },
				verify: func(h *Heap) error {
					if stale != nil {
						return stale
					}
					vals := h.I64s(base, words)
					for w := 0; w < words; w++ {
						var want int64
						for n := 0; n < nodes; n++ {
							want += increments[n][w]
						}
						if vals[w] != want {
							return fmt.Errorf("word %d = %d, want %d (lost update)", w, vals[w], want)
						}
					}
					return nil
				},
			}
			for _, cfg := range allConfigs(nodes) {
				increments = make([][]int64, nodes)
				for i := range increments {
					increments[i] = make([]int64, words)
				}
				stale = nil
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.RunVerified(app); err != nil {
					t.Fatalf("%s/%d: %v", cfg.Protocol, cfg.BlockSize, err)
				}
			}
		})
	}
}

// TestInterruptNotify runs a workload under the interrupt mechanism.
func TestInterruptNotify(t *testing.T) {
	const nodes = 4
	var base int
	app := &testApp{
		name: "intr", heap: 32 * 1024,
		setup: func(h *Heap) { base = h.AllocI64s(256) },
		run: func(c *Ctx) {
			me := c.ID()
			for r := 0; r < 4; r++ {
				c.Lock(3)
				v := c.ReadI64(base)
				c.WriteI64(base, v+1)
				c.Unlock(3)
				c.Compute(200 * sim.Microsecond)
				_ = me
				c.Barrier()
			}
		},
		verify: func(h *Heap) error {
			if got := h.I64s(base, 1)[0]; got != nodes*4 {
				return fmt.Errorf("counter = %d, want %d", got, nodes*4)
			}
			return nil
		},
	}
	for _, p := range proto.PaperNames() {
		m, err := NewMachine(Config{Nodes: nodes, BlockSize: 1024, Protocol: p,
			Notify: network.Interrupt, Limit: 100 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunVerified(app); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

// TestConfigValidation exercises Config.Validate.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0, BlockSize: 64, Protocol: SC},
		{Nodes: 4, BlockSize: 0, Protocol: SC},
		{Nodes: 4, BlockSize: 96, Protocol: SC},
		{Nodes: 4, BlockSize: 64, Protocol: "mesi"},
		{Nodes: 4, BlockSize: 64},
		{Nodes: MaxNodes + 1, BlockSize: 64, Protocol: SC},
	}
	for i, cfg := range bad {
		if _, err := NewMachine(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewMachine(Config{Sequential: true, BlockSize: 4096}); err != nil {
		t.Errorf("sequential defaults rejected: %v", err)
	}
}
