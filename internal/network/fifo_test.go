package network

import (
	"testing"

	"dsmsim/internal/mem"
	"dsmsim/internal/sim"
	"dsmsim/internal/timing"
)

// TestFIFOPerPair verifies that a small message sent after a large one to
// the same destination does not overtake it, matching Myrinet's in-order
// delivery (coherence streams such as HLRC diffs rely on this).
func TestFIFOPerPair(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng, timing.Default(), Polling, 2)
	var order []int
	nw.Endpoint(1).Bind(&testHost{},
		func(m *Msg) sim.Time { return 0 },
		func(m *Msg) { order = append(order, m.Kind) })
	nw.Endpoint(0).Bind(&testHost{}, func(m *Msg) sim.Time { return 0 }, func(m *Msg) {})
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1, Bytes: 8192})
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 2, Block: -1, Bytes: 0})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order = %v, want [1 2] (FIFO)", order)
	}
}

// TestNoFIFOAcrossPairs verifies different sources are independent: node 2's
// small message may be serviced before node 0's large one.
func TestNoFIFOAcrossPairs(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng, timing.Default(), Polling, 3)
	var order []int
	nw.Endpoint(1).Bind(&testHost{},
		func(m *Msg) sim.Time { return 0 },
		func(m *Msg) { order = append(order, m.Kind) })
	for _, i := range []int{0, 2} {
		nw.Endpoint(i).Bind(&testHost{}, func(m *Msg) sim.Time { return 0 }, func(m *Msg) {})
	}
	eng.Schedule(0, func() {
		nw.Endpoint(0).Send(&Msg{Src: 0, Dst: 1, Kind: 1, Block: -1, Bytes: 8192})
		nw.Endpoint(2).Send(&Msg{Src: 2, Dst: 1, Kind: 2, Block: -1, Bytes: 0})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 {
		t.Fatalf("delivery order = %v, want small message from other source first", order)
	}
}

// TestLongAllocFindsBuriedBuffer: AllocData, like mem.Pool.Get, drops every
// buffer too short for it on its way down to one that fits, so the free list
// holds no more long buffers than were drawn at once however the lengths
// mix. Here a hundred short draws take the one long buffer along and give it
// back first, burying it; the long draw after them must find it, not drop
// one short buffer and allocate a second long one.
func TestLongAllocFindsBuriedBuffer(t *testing.T) {
	defer mem.IsolatePools(nil)()
	nw := New(sim.NewEngine(), timing.Default(), Polling, 2)
	defer nw.Close()
	held := make([][]byte, 100)
	var long *byte
	for round := range 5 {
		for i := range held {
			held[i] = nw.AllocData(8)
		}
		for _, d := range held {
			nw.Recycle(&Msg{Data: d, DataPooled: true})
		}
		d := nw.AllocData(1024)
		if round > 0 && &d[0] != long {
			t.Fatalf("round %d: the long draw allocated with a long buffer on the free list", round)
		}
		long = &d[0]
		nw.Recycle(&Msg{Data: d, DataPooled: true})
		if n := len(nw.free.bufs); n > len(held) {
			t.Fatalf("round %d: %d buffers wait, more than the %d ever drawn at once", round, n, len(held))
		}
	}
}
