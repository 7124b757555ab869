package network

import (
	"testing"

	"dsmsim/internal/faults"
	"dsmsim/internal/sim"
	"dsmsim/internal/timing"
)

// setupFaulty is setup with a compiled fault plan attached.
func setupFaulty(t *testing.T, n int, plan *faults.Plan) (*sim.Engine, *Network, []*testHost, *[]delivery) {
	t.Helper()
	eng, nw, hosts, got := setup(t, Polling, n)
	if err := plan.ValidateFor(n); err != nil {
		t.Fatal(err)
	}
	nw.SetFaults(plan.Compile(n))
	return eng, nw, hosts, got
}

func TestInactivePlanKeepsFastPath(t *testing.T) {
	// A plan with no wire-active rules must leave the network on the exact
	// fault-free path: same delivery time, no ARQ counters.
	eng, nw, _, got := setupFaulty(t, 2, faults.NewPlan(faults.Seed(9)))
	model := timing.Default()
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 7, Block: -1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := model.SendOverhead + model.OneWayLatency(model.MsgHeader) + model.HandlerCost
	if (*got)[0].at != want {
		t.Fatalf("delivered at %v, want fast-path %v", (*got)[0].at, want)
	}
	if s := nw.Endpoint(1).Stats; s.AcksSent != 0 || s.Duplicates != 0 {
		t.Fatalf("inactive plan produced ARQ traffic: %+v", s)
	}
}

func TestLosslessARQDeliversOnTime(t *testing.T) {
	// Wire-active plan but probability 0 on the exercised links: the ARQ
	// path must deliver at exactly the fast-path time (the reliability
	// machinery adds acks and timers, never data latency).
	eng, nw, _, got := setupFaulty(t, 2, faults.NewPlan(faults.DropLink(1, 0, 0.5)))
	model := timing.Default()
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 7, Block: -1, Bytes: 32})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("deliveries = %d", len(*got))
	}
	want := model.SendOverhead + model.OneWayLatency(32+model.MsgHeader) + model.HandlerCost
	if (*got)[0].at != want {
		t.Fatalf("delivered at %v, want %v", (*got)[0].at, want)
	}
	s := nw.Endpoint(1).Stats
	if s.AcksSent != 1 || s.Duplicates != 0 {
		t.Fatalf("receiver stats %+v", s)
	}
	if s0 := nw.Endpoint(0).Stats; s0.Retransmits != 0 || s0.WireDrops != 0 {
		t.Fatalf("sender stats %+v", s0)
	}
}

func TestNoSpuriousRetxBehindLargeFrame(t *testing.T) {
	// The wire latency is size-calibrated (20µs for a tiny frame, ~856µs
	// for a 4KB one) and FIFO per link. A small frame sent right behind a
	// large one therefore acks only after the large frame's wire time; the
	// retransmit timer must account for that occupancy instead of timing
	// out on the small frame's own round-trip estimate.
	eng, nw, _, got := setupFaulty(t, 2, faults.NewPlan(faults.Drop(1e-15), faults.Seed(1)))
	model := timing.Default()
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 0, Block: -1, Bytes: 4096})
	})
	eng.Schedule(sim.Microsecond, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 2 || (*got)[0].kind != 0 || (*got)[1].kind != 1 {
		t.Fatalf("deliveries = %+v, want FIFO kinds 0,1", *got)
	}
	// The small frame cannot overtake the 4KB frame on the FIFO wire.
	bigAt := model.SendOverhead + model.OneWayLatency(4096+model.MsgHeader) + model.HandlerCost
	if (*got)[0].at != bigAt {
		t.Fatalf("large frame delivered at %v, want %v", (*got)[0].at, bigAt)
	}
	if s := nw.Endpoint(0).Stats; s.Retransmits != 0 || s.Timeouts != 0 {
		t.Fatalf("lossless size-skewed traffic retransmitted: %+v", s)
	}
	if s := nw.Endpoint(1).Stats; s.Duplicates != 0 {
		t.Fatalf("receiver saw duplicates: %+v", s)
	}
}

func TestDropRecoversByRetransmission(t *testing.T) {
	// 60% drop: some transmissions (or their acks) are lost, yet every
	// message is delivered exactly once, in order.
	eng, nw, _, got := setupFaulty(t, 2, faults.NewPlan(faults.Drop(0.6), faults.Seed(11)))
	const n = 50
	eng.Schedule(0, func() {
		for k := 0; k < n; k++ {
			nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: k, Block: -1})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != n {
		t.Fatalf("deliveries = %d, want %d", len(*got), n)
	}
	for k, d := range *got {
		if d.kind != k {
			t.Fatalf("delivery %d has kind %d: FIFO violated", k, d.kind)
		}
	}
	s := nw.Endpoint(0).Stats
	if s.Retransmits == 0 || s.WireDrops == 0 {
		t.Fatalf("60%% drop produced no retransmissions: %+v", s)
	}
	if s.RetransmitLatency.Count == 0 {
		t.Fatal("no retransmit-latency samples despite retransmissions")
	}
}

func TestDuplicatesAreDiscarded(t *testing.T) {
	eng, nw, _, got := setupFaulty(t, 2, faults.NewPlan(faults.Duplicate(0.9), faults.Seed(4)))
	const n = 20
	eng.Schedule(0, func() {
		for k := 0; k < n; k++ {
			nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: k, Block: -1})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != n {
		t.Fatalf("deliveries = %d, want exactly %d (dedup failed)", len(*got), n)
	}
	if nw.Endpoint(1).Stats.Duplicates == 0 {
		t.Fatal("90% duplication recorded no discarded duplicates")
	}
}

func TestJitterReorderIsHiddenByReorderBuffer(t *testing.T) {
	// Heavy jitter scrambles arrival order on the wire; the receiver's
	// sequence buffer must still deliver in send order.
	eng, nw, _, got := setupFaulty(t, 2,
		faults.NewPlan(faults.Jitter(200*sim.Microsecond), faults.Seed(5)))
	const n = 30
	eng.Schedule(0, func() {
		for k := 0; k < n; k++ {
			nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: k, Block: -1})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != n {
		t.Fatalf("deliveries = %d, want %d", len(*got), n)
	}
	for k, d := range *got {
		if d.kind != k {
			t.Fatalf("delivery %d has kind %d: reorder buffer failed", k, d.kind)
		}
	}
}

func TestPartitionHealsAfterWindow(t *testing.T) {
	// The 0↔1 link is cut for the first 2ms; a message sent at t=0 must
	// still arrive — after the window closes — via retransmission.
	cut := 2 * sim.Millisecond
	eng, nw, _, got := setupFaulty(t, 2, faults.NewPlan(faults.Partition(0, 1, 0, cut)))
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("deliveries = %d", len(*got))
	}
	if (*got)[0].at < cut {
		t.Fatalf("delivered at %v, inside the partition window [0, %v)", (*got)[0].at, cut)
	}
	s := nw.Endpoint(0).Stats
	if s.Retransmits == 0 || s.WireDrops == 0 {
		t.Fatalf("partition recovery recorded no retransmissions: %+v", s)
	}
}

func TestDataSurvivesLossIntact(t *testing.T) {
	// Payload bytes must arrive unmodified through drops, dups and
	// retransmission copies, and the pooled-buffer discipline must hold
	// (each delivery owns a private buffer).
	eng, nw, _, _ := setup(t, Polling, 2)
	plan := faults.NewPlan(faults.Drop(0.4), faults.Duplicate(0.3), faults.Seed(8))
	nw.SetFaults(plan.Compile(2))
	var seen [][]byte
	// Rebind receiver to capture data (setup's handler ignores it).
	nw.eps[1].handler = func(m *Msg) {
		b := make([]byte, len(m.Data))
		copy(b, m.Data)
		seen = append(seen, b)
	}
	const n = 16
	eng.Schedule(0, func() {
		for k := 0; k < n; k++ {
			d := nw.AllocData(64)
			for i := range d {
				d[i] = byte(k)
			}
			nw.Endpoint(0).Send(&Msg{
				Src: 0, Dst: 1, Kind: k, Block: -1,
				Data: d, DataPooled: true, Bytes: 64,
			})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("deliveries = %d, want %d", len(seen), n)
	}
	for k, d := range seen {
		for _, b := range d {
			if b != byte(k) {
				t.Fatalf("message %d carried corrupted data % x", k, d[:8])
			}
		}
	}
}

func TestNonPooledDataSnapshotAtSend(t *testing.T) {
	// Data aliasing caller memory is snapshotted at Send: mutating the
	// buffer afterwards must not change what retransmissions deliver.
	eng, nw, _, _ := setup(t, Polling, 2)
	nw.SetFaults(faults.NewPlan(faults.Drop(0.7), faults.Seed(3)).Compile(2))
	var seen []byte
	nw.eps[1].handler = func(m *Msg) {
		seen = append([]byte(nil), m.Data...)
	}
	buf := []byte{1, 2, 3, 4}
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1, Data: buf, Bytes: 4})
		for i := range buf {
			buf[i] = 0xFF // mutate after Send — must not leak to the wire
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 || seen[0] != 1 || seen[3] != 4 {
		t.Fatalf("delivered data %v, want the send-time snapshot [1 2 3 4]", seen)
	}
}

func TestFaultDeterminism(t *testing.T) {
	// Identical seeds must reproduce delivery times and every ARQ counter
	// exactly; a different seed must not.
	run := func(seed uint64) ([]delivery, Stats, Stats) {
		eng, nw, _, got := setup(t, Polling, 2)
		plan := faults.NewPlan(
			faults.Drop(0.3), faults.Duplicate(0.1),
			faults.Jitter(20*sim.Microsecond), faults.Seed(seed))
		nw.SetFaults(plan.Compile(2))
		eng.Schedule(0, func() {
			for k := 0; k < 40; k++ {
				nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: k, Block: -1})
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return *got, nw.Endpoint(0).Stats, nw.Endpoint(1).Stats
	}
	g1, s1a, s1b := run(42)
	g2, s2a, s2b := run(42)
	if len(g1) != len(g2) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(g1), len(g2))
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("same seed, delivery %d differs: %+v vs %+v", i, g1[i], g2[i])
		}
	}
	if s1a.Retransmits != s2a.Retransmits || s1a.WireDrops != s2a.WireDrops ||
		s1b.Duplicates != s2b.Duplicates || s1b.AcksSent != s2b.AcksSent {
		t.Fatalf("same seed, different counters: %+v/%+v vs %+v/%+v", s1a, s1b, s2a, s2b)
	}
	g3, _, _ := run(43)
	differs := len(g1) != len(g3)
	for i := 0; !differs && i < len(g1); i++ {
		differs = g1[i] != g3[i]
	}
	if !differs {
		t.Fatal("different seeds produced identical schedules")
	}
}

// arqDriver sends one message every gap from inside Run, round-robin over the
// directed links, alternating header-only messages and 4 KB pooled payloads:
// the traffic of TestARQSteadyStateZeroAlloc.
type arqDriver struct {
	eng       *sim.Engine
	nw        *Network
	gap       sim.Time
	next      int // messages sent so far, over all bursts
	left      int // messages still to send in this burst
	delivered int
}

func (d *arqDriver) burst(t *testing.T, sends int, gap sim.Time) {
	d.left, d.gap = sends, gap
	d.eng.ScheduleArg(d.eng.Now(), arqDriverSend, d)
	want := d.delivered + sends
	if err := d.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d.delivered != want {
		t.Fatalf("%d of %d messages delivered", d.delivered-(want-sends), sends)
	}
}

func arqDriverSend(arg any) {
	d := arg.(*arqDriver)
	if d.left == 0 {
		return
	}
	d.left--
	k, n := d.next, d.nw.Size()
	d.next++
	src := k % n
	m := Msg{Src: src, Dst: (src + 1 + k/n%(n-1)) % n, Kind: k, Block: -1}
	if k%2 == 1 {
		m.Data, m.DataPooled, m.Bytes = d.nw.AllocData(4096), true, 4096
	}
	d.nw.Endpoint(src).Send(&m)
	d.eng.ScheduleArg(d.eng.Now()+d.gap, arqDriverSend, d)
}

// freeFrames walks the frame free list.
func (n *Network) freeFrames() int {
	k := 0
	for f := n.frameFree; f != nil; f = f.next {
		k++
	}
	return k
}

// TestARQSteadyStateZeroAlloc: once the pools, the queues and the links'
// reorder buffers have grown to their working size, the reliable path
// allocates nothing — not per send, not per ack, not per timer, not per
// retransmission — and every frame is back on the free list when the last
// stale timer has fired.
func TestARQSteadyStateZeroAlloc(t *testing.T) {
	const nodes, sends = 16, 1000
	eng := sim.NewEngine()
	nw := New(eng, timing.Default(), Polling, nodes)
	d := &arqDriver{eng: eng, nw: nw}
	for i := 0; i < nodes; i++ {
		nw.Endpoint(i).Bind(&testHost{},
			func(*Msg) sim.Time { return 0 },
			func(*Msg) { d.delivered++ })
	}
	plan := faults.NewPlan(faults.Drop(0.01), faults.Duplicate(0.005), faults.Jitter(20*sim.Microsecond), faults.Seed(5))
	nw.SetFaults(plan.Compile(nodes))

	// The warm-up burst is longer and twice as dense as the measured one, so
	// that every pool and queue has seen more in flight than it will again.
	const gap = 2 * sim.Microsecond
	d.burst(t, 4*sends, gap/2)
	free := nw.freeFrames()
	if free == 0 || free%frameSlab != 0 {
		t.Fatalf("%d frames free after the warm-up burst, want whole slabs of %d", free, frameSlab)
	}
	if avg := testing.AllocsPerRun(1, func() { d.burst(t, sends, gap) }); avg != 0 {
		t.Fatalf("%d sends on the ARQ path allocated %.0f objects, want 0", sends, avg)
	}
	if got := nw.freeFrames(); got != free {
		t.Fatalf("%d frames free after the run, %d before: the free list leaked or grew", got, free)
	}
	if tot := nw.Traffic(); tot.Retransmits == 0 || tot.Duplicates == 0 {
		t.Fatalf("the plan never bit: %d retransmissions, %d duplicates", tot.Retransmits, tot.Duplicates)
	}
}
