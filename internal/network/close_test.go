package network

import (
	"fmt"
	"reflect"
	"testing"

	"dsmsim/internal/faults"
	"dsmsim/internal/mem"
	"dsmsim/internal/sim"
)

// barrierTraffic has every endpoint but 0 send node 0 a 256-byte pooled
// buffer, and nodes 0 and 1 answer each with a header-only message — a
// barrier's links and one more row, with data buffers and, under a
// wire-active plan, ARQ frames.
func barrierTraffic(t *testing.T, ln *linkNet, n int) {
	t.Helper()
	ln.eng.Schedule(ln.eng.Now(), func() {
		for i := 1; i < n; i++ {
			d := ln.nw.AllocData(256)
			for k := range d {
				d[k] = byte(i)
			}
			ln.nw.Endpoint(i).Send(&Msg{Src: i, Dst: 0, Block: -1, A: int64(i), Data: d, DataPooled: true, Bytes: len(d)})
			ln.nw.Endpoint(0).Send(&Msg{Src: 0, Dst: i, Block: -1, A: int64(n + i)})
			ln.nw.Endpoint(1).Send(&Msg{Src: 1, Dst: i, Block: -1, A: int64(2*n + i)})
		}
	})
	if err := ln.eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if _, ok := ln.arrived[int64(n+i)]; !ok {
			t.Fatalf("message %d did not arrive", n+i)
		}
	}
}

// TestCloseHandsOnWhatItDrew: a network built after another of its size has
// closed draws that one's endpoint slab, link directory and chunks and free
// lists — every draw a hit — and finds them as a fresh network would: every
// endpoint zero but for its id and network, no link page materialised, and
// on the free lists exactly the messages, data buffers and ARQ frames the
// first one recycled, each buffer as the close hook left it. A restore
// draws its pages from the pools too; every buffer arriving at a pool is
// all-zero; closing twice does nothing.
func TestCloseHandsOnWhatItDrew(t *testing.T) {
	var dirty []string
	defer mem.StackSlabs(func(whole []byte) {
		for i, b := range whole {
			if b != 0 {
				dirty = append(dirty, fmt.Sprintf("a pooled buffer of %d bytes holds %#x at byte %d", len(whole), b, i))
				return
			}
		}
	})()
	poisoned := 0
	defer SetCloseHook(func(buf []byte) {
		poisoned++
		for k := range buf {
			buf[k] = 0xA5
		}
	})()
	const n = 130 // three directory entries a source: the traffic takes two chunks
	plan := faults.NewPlan(faults.Drop(0.05), faults.Seed(3), faults.StartAtBarrier(1))

	// The fast path materialises link pages, the ARQ path draws frames.
	first := newLinkNet(n)
	first.nw.SetFaults(plan.Compile(n))
	barrierTraffic(t, first, n)
	first.nw.ActivateFaults()
	barrierTraffic(t, first, n)
	st := first.nw.CaptureLinks()
	chunks := len(first.nw.links.chunks)
	msgs, bufs, frames := len(first.nw.free.msgs), len(first.nw.free.bufs), first.nw.freeFrames()
	if chunks < 2 || msgs == 0 || bufs == 0 || frames == 0 {
		t.Fatalf("the first network used %d link chunks and freed %d messages, %d buffers and %d frames; want every kind",
			chunks, msgs, bufs, frames)
	}
	first.nw.Close()
	first.nw.Close()
	if poisoned != bufs {
		t.Fatalf("the close hook saw %d buffers, the free list held %d", poisoned, bufs)
	}

	drawn0 := mem.PoolTotals()
	second := newLinkNet(n)
	for i := range second.nw.eps {
		ep := second.nw.eps[i]
		ep.id, ep.net, ep.host, ep.cost, ep.handler = 0, nil, nil, nil, nil // what New and Bind set
		if !reflect.ValueOf(ep).IsZero() {
			t.Fatalf("endpoint %d of the second network carries state of the first: %+v", i, ep)
		}
	}
	if second.nw.links.dir != nil {
		t.Fatal("the second network starts with a link directory")
	}
	if got := [3]int{len(second.nw.free.msgs), len(second.nw.free.bufs), second.nw.freeFrames()}; got != [3]int{msgs, bufs, frames} {
		t.Fatalf("the second network's free lists hold %v messages, buffers, frames; the first left %v", got, [3]int{msgs, bufs, frames})
	}
	for _, b := range second.nw.free.bufs {
		if b[0] != 0xA5 || b[cap(b)-1] != 0xA5 {
			t.Fatal("a free buffer is not as the close hook left it")
		}
	}
	second.nw.RestoreLinks(st)
	if got := len(second.nw.links.chunks); got != chunks {
		t.Fatalf("the restore cut %d chunks, the snapshot has %d", got, chunks)
	}
	drawn := mem.PoolTotals()
	hits, misses := drawn.Hits-drawn0.Hits, drawn.Misses-drawn0.Misses
	if want := int64(3 + chunks); misses != 0 || hits != want { // endpoints, free lists, directory, chunks
		t.Fatalf("the second network drew %d from the pools and allocated %d; want %d draws, none allocated", hits, misses, want)
	}
	second.nw.Close()
	for _, d := range dirty[:min(len(dirty), 5)] {
		t.Error(d)
	}
}

// TestSnapshotLinksAllocate: a checkpoint outlives its run, so CaptureLinks
// draws nothing from the pools, and closing the network leaves the snapshot
// whole.
func TestSnapshotLinksAllocate(t *testing.T) {
	defer mem.StackSlabs(nil)()
	const n = 70
	ln := newLinkNet(n)
	barrierTraffic(t, ln, n)
	drawn0 := mem.PoolTotals()
	st := ln.nw.CaptureLinks()
	if drawn := mem.PoolTotals(); drawn != drawn0 {
		t.Fatalf("CaptureLinks drew from the pools: %v, before %v", drawn, drawn0)
	}
	var before []sim.Time
	st.Each(func(_, _ int, at []sim.Time) { before = append(before, at...) })
	ln.nw.Close()
	next := newLinkNet(n) // draws, and writes over, what Close gave back
	next.eng.RestoreClock(sim.Microsecond, 0)
	barrierTraffic(t, next, n)
	var after []sim.Time
	st.Each(func(_, _ int, at []sim.Time) { after = append(after, at...) })
	if len(before) == 0 || !reflect.DeepEqual(before, after) {
		t.Fatalf("the snapshot changed after its network closed: %d clamps, then %d", len(before), len(after))
	}
}
