package synch_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dsmsim/internal/core"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
)

type scriptApp struct {
	script func(c *core.Ctx)
}

func (a *scriptApp) Info() core.AppInfo        { return core.AppInfo{Name: "sync-script", HeapBytes: 32768} }
func (a *scriptApp) Setup(h *core.Heap)        {}
func (a *scriptApp) Run(c *core.Ctx)           { a.script(c) }
func (a *scriptApp) Verify(h *core.Heap) error { return nil }

func run(t *testing.T, nodes int, protocol string, script func(c *core.Ctx)) *core.Result {
	t.Helper()
	m, err := core.NewMachine(core.Config{
		Nodes: nodes, BlockSize: 1024, Protocol: protocol, Limit: 60 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunVerified(&scriptApp{script: script})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMutualExclusion: overlapping critical sections must never be
// observed, under every protocol.
func TestMutualExclusion(t *testing.T) {
	for _, p := range core.Protocols {
		p := p
		t.Run(p, func(t *testing.T) {
			inside := 0
			var violation bool
			run(t, 8, p, func(c *core.Ctx) {
				for i := 0; i < 10; i++ {
					c.Lock(7)
					inside++
					if inside != 1 {
						violation = true
					}
					c.Compute(50 * sim.Microsecond)
					inside--
					c.Unlock(7)
					c.Compute(10 * sim.Microsecond)
				}
			})
			if violation {
				t.Fatal("two nodes were inside the critical section at once")
			}
		})
	}
}

// TestLockFairnessFIFO: the manager grants queued waiters in arrival
// order — no starvation.
func TestLockFairnessFIFO(t *testing.T) {
	var order []int
	run(t, 4, core.SC, func(c *core.Ctx) {
		// Stagger arrivals so the queue order is deterministic.
		c.Compute(sim.Time(c.ID()) * 100 * sim.Microsecond)
		c.Lock(1)
		order = append(order, c.ID())
		c.Compute(2 * sim.Millisecond) // force the others to queue
		c.Unlock(1)
	})
	if len(order) != 4 {
		t.Fatalf("grants = %v", order)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("grant order = %v, want FIFO by arrival", order)
		}
	}
}

// TestBarrierBlocksUntilAll: nobody passes the barrier before the last
// arrival.
func TestBarrierBlocksUntilAll(t *testing.T) {
	arrive := make([]sim.Time, 4)
	depart := make([]sim.Time, 4)
	run(t, 4, core.HLRC, func(c *core.Ctx) {
		c.Compute(sim.Time(c.ID()+1) * 3 * sim.Millisecond)
		arrive[c.ID()] = c.Now()
		c.Barrier()
		depart[c.ID()] = c.Now()
	})
	last := arrive[3]
	for i, d := range depart {
		if d < last {
			t.Fatalf("node %d departed at %v before last arrival %v", i, d, last)
		}
	}
}

// TestBarrierReusable: the same barrier works across many phases with no
// cross-phase leakage.
func TestBarrierReusable(t *testing.T) {
	const phases = 8
	counts := make([]int, phases)
	run(t, 4, core.SWLRC, func(c *core.Ctx) {
		for ph := 0; ph < phases; ph++ {
			counts[ph]++
			c.Barrier()
			if counts[ph] != 4 {
				panic(fmt.Sprintf("phase %d: %d arrivals visible after barrier", ph, counts[ph]))
			}
			c.Barrier()
		}
	})
}

// TestManyLocksIndependent: distinct locks do not serialize each other.
func TestManyLocksIndependent(t *testing.T) {
	res := run(t, 4, core.SC, func(c *core.Ctx) {
		// Each node uses its own lock: all critical sections overlap.
		c.Lock(100 + c.ID())
		c.Compute(10 * sim.Millisecond)
		c.Unlock(100 + c.ID())
		c.Barrier()
	})
	// If the locks serialized, the run would take ≥40ms of lock time.
	if res.Time > 15*sim.Millisecond {
		t.Fatalf("independent locks serialized: run took %v", res.Time)
	}
}

// TestLockStallAccounting: lock stall time is attributed to waiters.
func TestLockStallAccounting(t *testing.T) {
	res := run(t, 2, core.SC, func(c *core.Ctx) {
		if c.ID() == 0 {
			c.Lock(0)
			c.Compute(20 * sim.Millisecond)
			c.Unlock(0)
		} else {
			c.Compute(1 * sim.Millisecond) // arrive second
			c.Lock(0)
			c.Unlock(0)
		}
		c.Barrier()
	})
	if res.Total.LockStall < 15*sim.Millisecond {
		t.Fatalf("lock stall = %v, want ≈19ms (waiter blocked)", res.Total.LockStall)
	}
	if res.Total.LockAcquires != 2 {
		t.Fatalf("lock acquires = %d", res.Total.LockAcquires)
	}
}

// noticeOracle wraps a real interval protocol and checks, at every
// completed acquire, that the write notices the synchronization layer
// applied are exactly the log's intervals between the node's clock before
// the acquire and after it — what materialising
// append(Log.Between(j, before[j], after[j])...) would have handed over —
// and that WriteNoticesRecv advanced by their notice count.
type noticeOracle struct {
	proto.Protocol
	env    *proto.Env
	before []proto.VC         // each node's clock at its last completed acquire
	recv   []int64            // ... and its WriteNoticesRecv then
	got    [][]proto.Interval // non-empty intervals applied since
}

var oracleFailures []string

func registerOracle(inner string) string {
	reg, _ := proto.Lookup(inner)
	name := inner + "+oracle"
	proto.Register(name, proto.Meta{Title: "test oracle over " + inner, Order: 1000, NeedsClocks: true},
		func(env *proto.Env) proto.Iface {
			o := &noticeOracle{Protocol: reg.New(env), env: env}
			for range env.VCs {
				o.before = append(o.before, proto.NewVC(len(env.VCs)))
			}
			o.recv = make([]int64, len(env.VCs))
			o.got = make([][]proto.Interval, len(env.VCs))
			return o
		})
	return name
}

var oracleProtocols = []string{registerOracle(core.SWLRC), registerOracle(core.HLRC)}

func (o *noticeOracle) ApplyNotices(node int, ivs []proto.Interval) {
	for _, iv := range ivs {
		if len(iv.Notices) > 0 {
			o.got[node] = append(o.got[node], iv)
		}
	}
	o.Protocol.ApplyNotices(node, ivs)
}

func (o *noticeOracle) OnAcquireComplete(node int) {
	before, after := o.before[node], o.env.VCs[node].Dense()
	before[node] = after[node] // a node's own intervals are never shipped to it
	var want []proto.Interval
	count := int64(0)
	for j := range after {
		for _, iv := range o.env.Log.Between(j, before[j], after[j]) {
			if len(iv.Notices) > 0 {
				want = append(want, iv)
				count += int64(len(iv.Notices))
			}
		}
	}
	got := o.got[node]
	if len(got) != len(want) {
		oracleFailures = append(oracleFailures,
			fmt.Sprintf("node %d: %d non-empty intervals applied, log has %d in (%v, %v]", node, len(got), len(want), before, after))
	} else {
		for k := range want {
			if got[k].Node != want[k].Node || got[k].Index != want[k].Index {
				oracleFailures = append(oracleFailures, fmt.Sprintf("node %d: interval %d applied is (%d,%d), log order has (%d,%d)",
					node, k, got[k].Node, got[k].Index, want[k].Node, want[k].Index))
				break
			}
		}
	}
	if d := o.env.Stats[node].WriteNoticesRecv - o.recv[node]; d != count {
		oracleFailures = append(oracleFailures, fmt.Sprintf("node %d: WriteNoticesRecv advanced by %d, log has %d notices", node, d, count))
	}
	copy(before, after)
	o.recv[node] = o.env.Stats[node].WriteNoticesRecv
	o.got[node] = o.got[node][:0]
	o.Protocol.OnAcquireComplete(node)
}

// TestAppliedNoticesMatchLog runs randomised lock/barrier schedules through
// the real grant and barrier-release handlers under both interval
// protocols: nodes take random locks between barriers (so clocks differ
// per node and component), write or don't (empty intervals), and some
// publish several intervals per phase while others publish only the
// barrier's.
func TestAppliedNoticesMatchLog(t *testing.T) {
	for _, p := range oracleProtocols {
		for _, nodes := range []int{3, 8, 13} {
			oracleFailures = nil
			grants := 0
			res := run(t, nodes, p, func(c *core.Ctx) {
				rng := rand.New(rand.NewSource(int64(100*nodes + c.ID())))
				for phase := 0; phase < 6; phase++ {
					for k := rng.Intn(4); k > 0; k-- {
						c.Compute(sim.Time(rng.Intn(200)) * sim.Microsecond)
						l := rng.Intn(3)
						c.Lock(l)
						if rng.Intn(3) > 0 {
							c.WriteI64(1024*rng.Intn(16)+8*c.ID(), int64(phase))
						}
						c.Unlock(l)
					}
					if rng.Intn(2) == 0 {
						c.WriteI64(1024*(16+rng.Intn(16))+8*c.ID(), int64(phase))
					}
					c.Barrier()
				}
			})
			for _, n := range res.PerNode {
				grants += int(n.LockAcquires)
			}
			if grants == 0 || res.Total.WriteNoticesRecv == 0 {
				t.Fatalf("%s/%d: schedule exercised %d lock grants and %d notices", p, nodes, grants, res.Total.WriteNoticesRecv)
			}
			for _, f := range oracleFailures {
				t.Errorf("%s/%d nodes: %s", p, nodes, f)
			}
		}
	}
}

// lockStep is the lock-taking program of core's fork tests (their
// "lockstep" app): one barrier per phase and before it two increments of
// lock-protected counters, one counter per block, so that at every cut some
// nodes hold a private clock and the last releasers differ per lock.
type lockStep struct{ base int }

const lockStepPhases, lockStepCounters = 6, 3

func (a *lockStep) Info() core.AppInfo        { return core.AppInfo{Name: "lockstep", HeapBytes: 8192} }
func (a *lockStep) Setup(h *core.Heap)        { a.base = h.AllocPage(lockStepCounters * 1024) }
func (a *lockStep) Verify(h *core.Heap) error { return nil }

func (a *lockStep) Run(c *core.Ctx) {
	c.Phases(lockStepPhases, func(e int) {
		for k := 0; k < 2; k++ {
			l := (c.ID() + e + k) % lockStepCounters
			c.Lock(l)
			c.WriteI64(a.base+l*1024, c.ReadI64(a.base+l*1024)+1)
			c.Unlock(l)
		}
		// A cut needs an empty event queue: let the release reach the
		// lock's home first.
		c.Compute(100 * sim.Microsecond)
	})
}

// noticeRecorder wraps a real interval protocol and keeps, per node and in
// order, every non-empty interval the synchronization layer applied in the
// run built last.
type noticeRecorder struct{ proto.Protocol }

var recorded [][]proto.Interval

func registerRecorder(inner string) string {
	reg, _ := proto.Lookup(inner)
	name := inner + "+recorder"
	proto.Register(name, proto.Meta{Title: "test recorder over " + inner, Order: 1001, NeedsClocks: true},
		func(env *proto.Env) proto.Iface {
			recorded = make([][]proto.Interval, env.Nodes())
			return noticeRecorder{reg.New(env)}
		})
	return name
}

var recorderProtocols = []string{registerRecorder(core.SWLRC), registerRecorder(core.HLRC)}

func (r noticeRecorder) ApplyNotices(node int, ivs []proto.Interval) {
	for _, iv := range ivs {
		if len(iv.Notices) > 0 {
			recorded[node] = append(recorded[node], iv)
		}
	}
	r.Protocol.ApplyNotices(node, ivs)
}

// TestForkAfterLockTrafficAppliesSameNotices cuts the lockstep app at every
// barrier, where lock grants have left the nodes' clocks in different forms
// over the shared base, and runs the next episode twice: on from the cut in
// a fresh run, and in a fork restored from the checkpoint. Every node must
// apply the same notices — the same log entries in the same order — both
// ways. A restore that lost the base would hand the fork's first release
// the whole log to filter; one that lost a private vector would re-apply
// what a grant had already delivered.
func TestForkAfterLockTrafficAppliesSameNotices(t *testing.T) {
	ctx := context.Background()
	for _, p := range recorderProtocols {
		m, err := core.NewMachine(core.Config{Nodes: 8, BlockSize: 1024, Protocol: p})
		if err != nil {
			t.Fatal(err)
		}
		app := &lockStep{}
		applied := 0
		for cut := 1; cut < lockStepPhases; cut++ {
			cp, err := m.RunToBarrier(ctx, app, cut)
			if err != nil {
				t.Fatalf("%s: RunToBarrier(%d): %v", p, cut, err)
			}
			prefix := recorded
			if _, err := m.RunToBarrier(ctx, app, cut+1); err != nil {
				t.Fatalf("%s: RunToBarrier(%d): %v", p, cut+1, err)
			}
			fresh := recorded
			if _, err := m.RunToBarrierFrom(ctx, cp, app, cut+1); err != nil {
				t.Fatalf("%s: RunToBarrierFrom(%d -> %d): %v", p, cut, cut+1, err)
			}
			fork := recorded
			for node := range fresh {
				want := fresh[node][len(prefix[node]):] // what the episode after the cut applied
				got := fork[node]
				applied += len(want)
				if len(got) != len(want) {
					t.Fatalf("%s, cut %d, node %d: fork applied %d intervals, fresh run %d", p, cut, node, len(got), len(want))
				}
				for k := range want {
					if got[k].Node != want[k].Node || got[k].Index != want[k].Index ||
						fmt.Sprint(got[k].Notices) != fmt.Sprint(want[k].Notices) {
						t.Fatalf("%s, cut %d, node %d: interval %d applied is %+v, fresh run applied %+v", p, cut, node, k, got[k], want[k])
					}
				}
			}
		}
		if applied == 0 {
			t.Fatalf("%s: no episode after a cut applied a notice", p)
		}
	}
}
