package core

import (
	"encoding/json"
	"strings"
	"testing"

	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
	"dsmsim/internal/trace"
)

// TestTimeBreakdownCoversRuntime: per node, the accounted components
// (compute + stalls) must cover most of the execution time and never
// exceed it.
func TestTimeBreakdownCoversRuntime(t *testing.T) {
	const nodes = 4
	var base int
	app := &testApp{
		name: "acct", heap: 64 * 1024,
		setup: func(h *Heap) { base = h.AllocF64s(2048) },
		run: func(c *Ctx) {
			me := c.ID()
			for r := 0; r < 6; r++ {
				c.Lock(me % 2)
				for i := me; i < 2048; i += c.NP() {
					c.WriteF64(base+i*8, float64(r))
				}
				c.Unlock(me % 2)
				c.Compute(500 * sim.Microsecond)
				c.Barrier()
				s := 0.0
				for _, v := range c.F64sR(base, 2048) {
					s += v
				}
				_ = s
				c.Barrier()
			}
		},
		verify: func(h *Heap) error { return nil },
	}
	for _, p := range proto.PaperNames() {
		m, err := NewMachine(Config{Nodes: nodes, BlockSize: 256, Protocol: p, Limit: 100 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunVerified(app)
		if err != nil {
			t.Fatal(err)
		}
		for i, ns := range res.PerNode {
			accounted := ns.Compute + ns.ReadStall + ns.WriteStall + ns.LockStall + ns.BarrierStall
			if accounted > res.Time+res.Time/10 {
				t.Errorf("%s node %d: accounted %v exceeds run time %v", p, i, accounted, res.Time)
			}
			if accounted < res.Time/2 {
				t.Errorf("%s node %d: accounted %v < half of run time %v (unattributed time)",
					p, i, accounted, res.Time)
			}
		}
	}
}

// TestComputeExtendsWithStolenTime: protocol service performed while a
// node computes lengthens that computation.
func TestComputeExtendsWithStolenTime(t *testing.T) {
	const nodes = 2
	var base int
	app := &testApp{
		name: "steal", heap: 64 * 1024,
		setup: func(h *Heap) { base = h.AllocF64s(4096) },
		run: func(c *Ctx) {
			if c.ID() == 0 {
				// Become home of everything, then compute while node 1
				// hammers us with fetch requests.
				v := c.F64sW(base, 4096)
				for i := range v {
					v[i] = 1
				}
				c.Barrier()
				c.Compute(20 * sim.Millisecond)
			} else {
				c.Barrier()
				s := 0.0
				for i := 0; i < 4096; i += 8 {
					s += c.ReadF64(base + i*8)
				}
				_ = s
			}
			c.Barrier()
		},
		verify: func(h *Heap) error { return nil },
	}
	m, err := NewMachine(Config{Nodes: nodes, BlockSize: 64, Protocol: SC, Limit: 100 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunVerified(app)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerNode[0].Stolen == 0 {
		t.Error("node 0 serviced hundreds of fetches while computing but stole no time")
	}
}

// TestPollingDilationApplied: an app that declares polling dilation runs
// proportionally more "compute" under polling than under interrupts.
func TestPollingDilationApplied(t *testing.T) {
	mk := func() App {
		return &dilApp{}
	}
	run := func(n network.Notify) sim.Time {
		m, err := NewMachine(Config{Nodes: 2, BlockSize: 4096, Protocol: SC, Notify: n, Limit: 100 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunVerified(mk())
		if err != nil {
			t.Fatal(err)
		}
		return res.Total.Compute
	}
	poll := run(network.Polling)
	intr := run(network.Interrupt)
	ratio := float64(poll) / float64(intr)
	if ratio < 1.45 || ratio > 1.55 {
		t.Fatalf("compute dilation ratio = %.3f, want ≈1.5", ratio)
	}
}

type dilApp struct{}

func (a *dilApp) Info() AppInfo {
	return AppInfo{Name: "dil", HeapBytes: 8192, PollDilation: 0.5}
}
func (a *dilApp) Setup(h *Heap) {}
func (a *dilApp) Run(c *Ctx) {
	c.Compute(10 * sim.Millisecond)
	c.Barrier()
}
func (a *dilApp) Verify(h *Heap) error { return nil }

// TestStaticHomesAblation: with StaticHomes, no home migrations happen and
// results stay correct.
func TestStaticHomesAblation(t *testing.T) {
	var base int
	app := &testApp{
		name: "static", heap: 32 * 1024,
		setup: func(h *Heap) { base = h.AllocI64s(512) },
		run: func(c *Ctx) {
			me := c.ID()
			for i := me; i < 512; i += c.NP() {
				c.WriteI64(base+i*8, int64(i))
			}
			c.Barrier()
			for i := 0; i < 512; i++ {
				if c.ReadI64(base+i*8) != int64(i) {
					panic("bad value")
				}
			}
			c.Barrier()
		},
		verify: func(h *Heap) error { return nil },
	}
	for _, p := range proto.PaperNames() {
		m, err := NewMachine(Config{Nodes: 4, BlockSize: 256, Protocol: p,
			StaticHomes: true, Limit: 100 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunVerified(app)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Total.HomeMigrations != 0 {
			t.Errorf("%s: %d migrations with StaticHomes", p, res.Total.HomeMigrations)
		}
	}
}

// TestSoftwareAccessCheckCharged: the all-software configuration charges
// instrumentation per access, lengthening compute proportionally to the
// number of shared accesses.
func TestSoftwareAccessCheckCharged(t *testing.T) {
	var base int
	mk := func() App {
		return &testApp{
			name: "swcheck", heap: 64 * 1024,
			setup: func(h *Heap) { base = h.AllocF64s(1024) },
			run: func(c *Ctx) {
				for i := 0; i < 1024; i++ {
					c.WriteF64(base+i*8, 1.0)
				}
				c.Compute(sim.Microsecond)
				c.Barrier()
			},
			verify: func(h *Heap) error { return nil },
		}
	}
	run := func(check sim.Time) sim.Time {
		m, err := NewMachine(Config{Nodes: 2, BlockSize: 4096, Protocol: SC,
			SoftwareAccessCheck: check, Limit: 100 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunVerified(mk())
		if err != nil {
			t.Fatal(err)
		}
		return res.Total.Compute
	}
	hw := run(0)
	sw := run(200) // 200ns per checked access
	// 1024 accesses × 200ns × 2 nodes = ~410µs extra compute.
	extra := sw - hw
	if extra < 300*sim.Microsecond || extra > 500*sim.Microsecond {
		t.Fatalf("software-check extra compute = %v, want ≈410µs", extra)
	}
}

// TestMemFootprintReported: every protocol reports its metadata footprint.
func TestMemFootprintReported(t *testing.T) {
	var base int
	app := &testApp{
		name: "memfp", heap: 64 * 1024,
		setup: func(h *Heap) { base = h.AllocI64s(64) },
		run: func(c *Ctx) {
			if c.ID() == 0 {
				c.WriteI64(base, 1) // claim the home
			}
			c.Barrier()
			if c.ID() != 0 {
				_ = c.ReadI64(base) // fetch a copy, then upgrade: twin
				c.Lock(0)
				c.WriteI64(base, 2)
				c.Unlock(0)
			}
			c.Barrier()
		},
		verify: func(h *Heap) error { return nil },
	}
	for _, p := range proto.PaperNames() {
		m, err := NewMachine(Config{Nodes: 2, BlockSize: 64, Protocol: p, Limit: 100 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunVerified(app)
		if err != nil {
			t.Fatal(err)
		}
		if res.ProtoStaticBytes <= 0 {
			t.Errorf("%s: no static footprint reported", p)
		}
		if p == HLRC && res.ProtoPeakBytes == 0 {
			t.Errorf("hlrc: twin peak not reported (a remote writer twinned)")
		}
		if p != HLRC && res.ProtoPeakBytes != 0 {
			t.Errorf("%s: unexpected dynamic footprint %d", p, res.ProtoPeakBytes)
		}
	}
}

// traceTestApp is the small lock+barrier workload the tracing tests share.
func traceTestApp() App {
	var base int
	return &testApp{
		name: "trace", heap: 32 * 1024,
		setup: func(h *Heap) { base = h.AllocI64s(64) },
		run: func(c *Ctx) {
			c.Lock(0)
			c.WriteI64(base, c.ReadI64(base)+1)
			c.Unlock(0)
			c.Barrier()
		},
		verify: func(h *Heap) error { return nil },
	}
}

// TestTraceDeterministic: under every protocol, identical runs emit
// byte-identical traces, and the trace contains fault, lock, barrier, send
// and serve events.
func TestTraceDeterministic(t *testing.T) {
	for _, p := range append(append([]string{}, proto.PaperNames()...), DC) {
		p := p
		t.Run(p, func(t *testing.T) {
			run := func() string {
				var buf strings.Builder
				m, err := NewMachine(Config{Nodes: 2, BlockSize: 256, Protocol: p,
					Trace: &buf, Limit: 10 * sim.Second})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.RunVerified(traceTestApp()); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			a, b := run(), run()
			if a != b {
				t.Fatal("traces of identical runs differ")
			}
			for _, want := range []string{"fault", "lock", "barr", "send", "serve"} {
				if !strings.Contains(a, want) {
					t.Fatalf("trace missing %q events:\n%s", want, a)
				}
			}
		})
	}
}

// TestTracingDoesNotPerturbTiming: enabling the trace must leave the
// simulated execution identical — same finish time, same fault counts.
func TestTracingDoesNotPerturbTiming(t *testing.T) {
	for _, p := range proto.PaperNames() {
		p := p
		t.Run(p, func(t *testing.T) {
			run := func(traced bool) *Result {
				cfg := Config{Nodes: 2, BlockSize: 256, Protocol: p, Limit: 10 * sim.Second}
				var line strings.Builder
				if traced {
					cfg.Trace = &line
				}
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.RunVerified(traceTestApp())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain, traced := run(false), run(true)
			if plain.Time != traced.Time {
				t.Errorf("tracing changed finish time: %v vs %v", plain.Time, traced.Time)
			}
			if plain.Total.ReadFaults != traced.Total.ReadFaults ||
				plain.Total.WriteFaults != traced.Total.WriteFaults {
				t.Errorf("tracing changed fault counts")
			}
			if plain.NetMsgs != traced.NetMsgs {
				t.Errorf("tracing changed message count: %d vs %d", plain.NetMsgs, traced.NetMsgs)
			}
		})
	}
}

// TestTraceJSONValid: a run's trace projects to a parseable Chrome
// trace-event array with events from every category.
func TestTraceJSONValid(t *testing.T) {
	var line, buf strings.Builder
	m, err := NewMachine(Config{Nodes: 2, BlockSize: 256, Protocol: HLRC,
		Trace: &line, Limit: 10 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunVerified(traceTestApp()); err != nil {
		t.Fatal(err)
	}
	if err := trace.Chrome(&buf, strings.NewReader(line.String())); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &events); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	cats := map[string]bool{}
	phases := map[string]bool{}
	for _, ev := range events {
		if c, ok := ev["cat"].(string); ok {
			cats[c] = true
		}
		if ph, ok := ev["ph"].(string); ok {
			phases[ph] = true
		}
	}
	for _, want := range []string{"sim", "mem", "synch", "proto", "net"} {
		if !cats[want] {
			t.Errorf("no %q events in JSON trace", want)
		}
	}
	if !phases["X"] || !phases["i"] {
		t.Errorf("expected both span (X) and instant (i) phases, got %v", phases)
	}
}

// TestLatencyHistogramsPopulated: a traced-or-not run fills the fault,
// lock/barrier wait and message latency distributions.
func TestLatencyHistogramsPopulated(t *testing.T) {
	m, err := NewMachine(Config{Nodes: 2, BlockSize: 256, Protocol: HLRC, Limit: 10 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunVerified(traceTestApp())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.ReadFaultTime.Count != res.Total.ReadFaults {
		t.Errorf("read fault histogram count %d != fault count %d",
			res.Total.ReadFaultTime.Count, res.Total.ReadFaults)
	}
	// The histogram observes every write-fault service, including the
	// first-touch home claims the WriteFaults counter excludes (they are
	// mapping faults, not coherence misses) — so >= rather than ==.
	if res.Total.WriteFaultTime.Count < res.Total.WriteFaults {
		t.Errorf("write fault histogram count %d < fault count %d",
			res.Total.WriteFaultTime.Count, res.Total.WriteFaults)
	}
	if res.Total.LockWait.Count != res.Total.LockAcquires {
		t.Errorf("lock wait histogram count %d != acquires %d",
			res.Total.LockWait.Count, res.Total.LockAcquires)
	}
	if res.Total.BarrierWait.Count != res.Total.BarrierEntries {
		t.Errorf("barrier wait histogram count %d != entries %d",
			res.Total.BarrierWait.Count, res.Total.BarrierEntries)
	}
	if res.MsgLatency.Count != res.NetMsgs {
		t.Errorf("message latency count %d != messages sent %d",
			res.MsgLatency.Count, res.NetMsgs)
	}
	if res.MsgLatency.P50() <= 0 {
		t.Errorf("message latency p50 = %d, want > 0", res.MsgLatency.P50())
	}
}
