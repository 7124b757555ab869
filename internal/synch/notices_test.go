package synch

import (
	"math/rand"
	"testing"

	"dsmsim/internal/mem"
	"dsmsim/internal/proto"
	"dsmsim/internal/timing"
)

// materialise is the representation the notices payload replaced, kept as
// the oracle: a fresh copy of every interval in (from, to], node ascending
// and index ascending, empty intervals included.
func materialise(log *proto.Log, from, to proto.VC) []proto.Interval {
	var ivs []proto.Interval
	for j := range from {
		ivs = append(ivs, log.Between(j, from[j], to[j])...)
	}
	return ivs
}

// checkAgainstOracle asserts d ships what the materialised slice over the
// oracle's dense clocks (from, to] shipped: the same non-empty intervals in
// the same order (an interval without notices has nothing to apply), the
// same notice count, the same wire size.
func checkAgainstOracle(t *testing.T, s *Sync, d *notices, from, to proto.VC, what string) {
	t.Helper()
	var want []proto.Interval
	wantCount := 0
	for _, iv := range materialise(s.env.Log, from, to) {
		if len(iv.Notices) > 0 {
			want = append(want, iv)
			wantCount += len(iv.Notices)
		}
	}
	var got []proto.Interval
	d.each(s.env.Log, func(ivs []proto.Interval) {
		if len(ivs) == 0 {
			t.Fatalf("%s: each called fn with an empty run", what)
		}
		for _, iv := range ivs {
			if len(iv.Notices) > 0 {
				got = append(got, iv)
			}
		}
	})
	if len(got) != len(want) {
		t.Fatalf("%s: %d non-empty intervals, oracle has %d", what, len(got), len(want))
	}
	for k := range want {
		// Same log entry, not merely an equal one: compare the identity
		// (node, index) and that the notices alias the published slice.
		if got[k].Node != want[k].Node || got[k].Index != want[k].Index || &got[k].Notices[0] != &want[k].Notices[0] {
			t.Fatalf("%s: interval %d is (%d,%d), oracle has (%d,%d)", what, k,
				got[k].Node, got[k].Index, want[k].Node, want[k].Index)
		}
	}
	if d.count != wantCount {
		t.Fatalf("%s: count %d, oracle %d", what, d.count, wantCount)
	}
	m := s.env.Model
	wantBytes := len(from)*m.VCEntryBytes + wantCount*m.WriteNoticeBytes
	if got := s.noticeBytes(d.count); got != wantBytes {
		t.Fatalf("%s: wire bytes %d, oracle %d", what, got, wantBytes)
	}
}

// sameClock asserts the clock reads, entry by entry, what the oracle's dense
// vector holds.
func sameClock(t *testing.T, c *proto.Clock, want proto.VC, what string) {
	t.Helper()
	for j, w := range want {
		if got := c.Get(j); got != w {
			t.Fatalf("%s: entry %d is %d, oracle has %d (oracle clock %v)", what, j, got, w, want)
		}
	}
}

// TestNoticesMatchMaterialisedOracle drives the by-reference payload and the
// base-relative clocks over randomised histories: every node publishes zero,
// one or several intervals per phase (some empty), nodes exchange lock
// grants between barriers so their clocks differ per component, and every
// lock grant and every receiver of every barrier release is checked against
// an oracle that keeps one dense, privately owned VC per node and
// materialises each shipment from the log.
func TestNoticesMatchMaterialisedOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		env := &proto.Env{
			Spaces: make([]*mem.Space, n), // only its length (the node count) is read
			Model:  &timing.Model{VCEntryBytes: 4, WriteNoticeBytes: 8 + rng.Intn(8)},
			Log:    proto.NewLog(n),
			VCs:    proto.NewClocks(n),
		}
		oracle := make([]proto.VC, n)
		for i := range oracle {
			oracle[i] = proto.NewVC(n)
		}
		s := New(env)
		publish := func(node int) {
			var ns []proto.WriteNotice
			for k := rng.Intn(4); k > 0; k-- { // 0 notices: an empty interval
				ns = append(ns, proto.WriteNotice{Block: int32(rng.Intn(64)), Seq: int32(k)})
			}
			idx := env.Log.Publish(node, ns)
			env.VCs[node].Tick(idx)
			oracle[node][node] = idx
		}
		for phase := 0; phase < 6; phase++ {
			for ops := rng.Intn(3 * n); ops > 0; ops-- {
				// A release by r followed by a grant from r to a, as
				// Acquire and handleGrantReq build it.
				r, a := rng.Intn(n), rng.Intn(n)
				publish(r)
				if a == r {
					continue
				}
				d := &notices{at: &env.VCs[a], to: env.VCs[r].Dense()}
				d.tally(env.Log)
				checkAgainstOracle(t, s, d, oracle[a], oracle[r], "grant")
				env.VCs[a].Merge(d.to)
				oracle[a].Merge(oracle[r])
				sameClock(t, &env.VCs[a], oracle[a], "after grant")
			}
			merged := proto.NewVC(n)
			for i := 0; i < n; i++ {
				publish(i) // Barrier closes the arriver's interval first
				merged.Merge(oracle[i])
			}
			rel := s.barrierNotices()
			for i := range rel {
				if rel[i].shared == nil {
					t.Fatal("barrier release without the shared interval list")
				}
				checkAgainstOracle(t, s, &rel[i], oracle[i], merged, "barrier")
			}
			for i := 0; i < n; i++ {
				env.VCs[i].Rebase(rel[i].to)
				oracle[i].Merge(merged)
				sameClock(t, &env.VCs[i], oracle[i], "after barrier")
			}
		}
	}
}
