package network

import (
	"math/rand"
	"testing"

	"dsmsim/internal/digest"
	"dsmsim/internal/sim"
	"dsmsim/internal/timing"
)

// linkNet is a network whose handlers record each message's arrival time
// under the id the sender put in A.
type linkNet struct {
	eng     *sim.Engine
	nw      *Network
	arrived map[int64]sim.Time
}

func newLinkNet(n int) *linkNet {
	ln := &linkNet{eng: sim.NewEngine(), arrived: map[int64]sim.Time{}}
	ln.nw = New(ln.eng, timing.Default(), Polling, n)
	host := &testHost{}
	for i := 0; i < n; i++ {
		ln.nw.Endpoint(i).Bind(host,
			func(*Msg) sim.Time { return 0 },
			func(m *Msg) { ln.arrived[m.A] = m.arrived })
	}
	return ln
}

// pages returns how many pages t has materialised.
func (t *linkTable) pages() int {
	n := 0
	for _, e := range t.dir {
		if e != 0 {
			n++
		}
	}
	return n
}

// denseLinks is the table the paged one replaced, kept as the oracle: one
// row of clamps per sending endpoint, made at its first send.
type denseLinks [][]sim.Time

// arrival is Send's arithmetic over the dense table.
func (d denseLinks) arrival(model *timing.Model, now sim.Time, src, dst, bytes int) sim.Time {
	if d[src] == nil {
		d[src] = make([]sim.Time, len(d))
	}
	at := now + model.SendOverhead
	if src != dst {
		at += model.OneWayLatency(bytes + model.MsgHeader)
	}
	at = max(at, d[src][dst])
	d[src][dst] = at
	return at
}

// hotspots are destinations on both sides of every page boundary a network
// of n endpoints has near its ends.
func hotspots(n int) []int {
	var hs []int
	for _, d := range []int{0, 1, linkPage - 1, linkPage, linkPage + 1, n - 1} {
		if d < n {
			hs = append(hs, d)
		}
	}
	return hs
}

// TestLinkTableMatchesDenseOracle sends random sequences over networks on
// both sides of the page length and checks every arrival against the dense
// oracle: self-sends, bursts on one link whose later, smaller messages run
// into the clamp, and destinations around the page boundaries included.
func TestLinkTableMatchesDenseOracle(t *testing.T) {
	model := timing.Default()
	for _, n := range []int{1, 2, 16, 65, 1024} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ln := newLinkNet(n)
			oracle := make(denseLinks, n)
			want := map[int64]sim.Time{}
			hs := hotspots(n)
			pick := func() int {
				if rng.Intn(3) == 0 {
					return hs[rng.Intn(len(hs))]
				}
				return rng.Intn(n)
			}
			id, clamped := int64(0), 0
			var at sim.Time
			for ev := 0; ev < 400; ev++ {
				at += sim.Time(rng.Intn(3)) * 50 * sim.Microsecond // often the same instant
				src, dst := pick(), pick()
				if rng.Intn(8) == 0 {
					dst = src
				}
				burst := 1 + rng.Intn(3)
				ln.eng.Schedule(at, func() {
					for k := 0; k < burst; k++ {
						bytes := 8192 >> (4 * k) // each smaller than the last: it would overtake
						id++
						free := ln.eng.Now() + model.SendOverhead + model.OneWayLatency(bytes+model.MsgHeader)
						want[id] = oracle.arrival(model, ln.eng.Now(), src, dst, bytes)
						if src != dst && want[id] > free {
							clamped++
						}
						ln.nw.Endpoint(src).Send(&Msg{Src: src, Dst: dst, Block: -1, A: id, Bytes: bytes})
					}
				})
			}
			if err := ln.eng.Run(); err != nil {
				t.Fatal(err)
			}
			if len(ln.arrived) != len(want) {
				t.Fatalf("%d endpoints, seed %d: %d messages arrived, %d sent", n, seed, len(ln.arrived), len(want))
			}
			for id, w := range want {
				if got := ln.arrived[id]; got != w {
					t.Fatalf("%d endpoints, seed %d: message %d arrived at %v, dense oracle says %v", n, seed, id, got, w)
				}
			}
			if n > 1 && clamped == 0 {
				t.Fatalf("%d endpoints, seed %d: no send ran into the FIFO clamp", n, seed)
			}
		}
	}
}

// TestLinkStateRoundTrip cuts a run of sends in two: a network restored from
// the first half's snapshot must deliver the second half exactly when the
// uncut network does, twice over from one snapshot, and with the table only
// partly materialised at the cut.
func TestLinkStateRoundTrip(t *testing.T) {
	const n, sends = 130, 300
	type send struct {
		at       sim.Time
		src, dst int
		bytes    int
	}
	rng := rand.New(rand.NewSource(7))
	var plan []send
	var at sim.Time
	for i := 0; i < sends; i++ {
		at += sim.Time(rng.Intn(2)) * 20 * sim.Microsecond
		// A few sources and destinations only: links repeat, so the second
		// half leans on clamps the first half set.
		plan = append(plan, send{at, rng.Intn(4) * 40, rng.Intn(5) * 30, 64 << (2 * rng.Intn(4))})
	}
	drive := func(ln *linkNet, from, to int) {
		for i := from; i < to; i++ {
			s := plan[i]
			ln.eng.Schedule(s.at, func() {
				ln.nw.Endpoint(s.src).Send(&Msg{Src: s.src, Dst: s.dst, Block: -1, A: int64(i), Bytes: s.bytes})
			})
		}
		if err := ln.eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	flat := newLinkNet(n)
	drive(flat, 0, sends)

	first := newLinkNet(n)
	drive(first, 0, sends/2)
	st := first.nw.CaptureLinks()
	total := n * ((n + linkPage - 1) / linkPage)
	if got := first.nw.links.pages(); got == 0 || got >= total/4 {
		t.Fatalf("%d of %d pages materialised at the cut, want a partly filled table", got, total)
	}
	before := digest.Of(st)
	for fork := 0; fork < 2; fork++ {
		ln := newLinkNet(n)
		ln.nw.RestoreLinks(st)
		ln.eng.RestoreClock(plan[sends/2].at, 0)
		drive(ln, sends/2, sends)
		for i := sends / 2; i < sends; i++ {
			if got, want := ln.arrived[int64(i)], flat.arrived[int64(i)]; got != want {
				t.Fatalf("fork %d: message %d arrived at %v, uncut run at %v", fork, i, got, want)
			}
		}
	}
	if digest.Of(st) != before {
		t.Fatal("running a restored network changed the snapshot")
	}
	if empty := newLinkNet(n).nw.CaptureLinks(); empty.t.dir != nil {
		t.Fatal("a network that never sent captured a directory")
	}
}

// TestLinkPagesBarrierPattern: a 1024-endpoint network on which every node
// sends to node 0 and node 0 to every node — a barrier — materialises one
// page per sender plus node 0's row, in a single chunk.
func TestLinkPagesBarrierPattern(t *testing.T) {
	const n = 1024
	ln := newLinkNet(n)
	ln.eng.Schedule(0, func() {
		for i := 1; i < n; i++ {
			ln.nw.Endpoint(i).Send(&Msg{Src: i, Dst: 0, Block: -1, A: int64(i)})
		}
		for i := 0; i < n; i++ {
			ln.nw.Endpoint(0).Send(&Msg{Src: 0, Dst: i, Block: -1, A: int64(n + i)})
		}
	})
	if err := ln.eng.Run(); err != nil {
		t.Fatal(err)
	}
	links := &ln.nw.links
	if got, most := links.pages(), n-1+n/linkPage; got > most {
		t.Errorf("%d pages materialised, want at most %d", got, most)
	}
	if len(links.chunks) != 1 {
		t.Errorf("the pattern took %d chunks, want 1", len(links.chunks))
	}
}

// TestLinkTableObjects: up to linkPage endpoints the whole table is two
// objects, the directory and one chunk of the bytes the dense rows took.
func TestLinkTableObjects(t *testing.T) {
	const n = 16
	ln := newLinkNet(n)
	allocs := testing.AllocsPerRun(1, func() {
		ln.nw.links = linkTable{nodes: n}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				*ln.nw.links.slot(src, dst) = 1
			}
		}
	})
	if allocs != 2 {
		t.Errorf("filling a %d-endpoint table allocated %.0f objects, want 2", n, allocs)
	}
	if got, want := len(ln.nw.links.chunks[0]), n*n; got != want {
		t.Errorf("chunk holds %d clamps, want %d", got, want)
	}
}
