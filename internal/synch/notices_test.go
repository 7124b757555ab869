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

// checkAgainstOracle asserts d ships what the materialised slice shipped:
// the same non-empty intervals in the same order (an interval without
// notices has nothing to apply), the same notice count, the same wire size.
func checkAgainstOracle(t *testing.T, s *Sync, d *notices, what string) {
	t.Helper()
	var want []proto.Interval
	wantCount := 0
	for _, iv := range materialise(s.env.Log, d.from, d.to) {
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
	wantBytes := len(d.from)*m.VCEntryBytes + wantCount*m.WriteNoticeBytes
	if got := s.noticeBytes(d.count); got != wantBytes {
		t.Fatalf("%s: wire bytes %d, oracle %d", what, got, wantBytes)
	}
}

// TestNoticesMatchMaterialisedOracle drives the by-reference payload over
// randomised histories: every node publishes zero, one or several intervals
// per phase (some empty), nodes exchange lock grants between barriers so
// their clocks differ per component, and every lock grant and every
// receiver of every barrier release is checked against the oracle.
func TestNoticesMatchMaterialisedOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		env := &proto.Env{
			Spaces: make([]*mem.Space, n), // only its length (the node count) is read
			Model:  &timing.Model{VCEntryBytes: 4, WriteNoticeBytes: 8 + rng.Intn(8)},
			Log:    proto.NewLog(n),
		}
		for i := 0; i < n; i++ {
			env.VCs = append(env.VCs, proto.NewVC(n))
		}
		s := New(env)
		s.barVCs = make([]proto.VC, n)
		publish := func(node int) {
			var ns []proto.WriteNotice
			for k := rng.Intn(4); k > 0; k-- { // 0 notices: an empty interval
				ns = append(ns, proto.WriteNotice{Block: int32(rng.Intn(64)), Seq: int32(k)})
			}
			env.VCs[node][node] = env.Log.Publish(node, ns)
		}
		for phase := 0; phase < 6; phase++ {
			for ops := rng.Intn(3 * n); ops > 0; ops-- {
				// A release by r followed by a grant from r to a, as
				// handleGrantReq builds it.
				r, a := rng.Intn(n), rng.Intn(n)
				publish(r)
				if a == r {
					continue
				}
				d := &notices{from: env.VCs[a].Clone(), to: env.VCs[r].Clone()}
				d.tally(env.Log)
				checkAgainstOracle(t, s, d, "grant")
				env.VCs[a].Merge(d.to)
			}
			for i := 0; i < n; i++ {
				publish(i) // Barrier closes the arriver's interval first
				s.barVCs[i] = env.VCs[i].Clone()
			}
			rel := s.barrierNotices()
			for i := range rel {
				if rel[i].shared == nil {
					t.Fatal("barrier release without the shared interval list")
				}
				checkAgainstOracle(t, s, &rel[i], "barrier")
				for j := range rel {
					if !rel[i].to.Dominates(s.barVCs[j]) {
						t.Fatalf("merged clock %v does not dominate arrival %v", rel[i].to, s.barVCs[j])
					}
				}
			}
			for i := 0; i < n; i++ {
				env.VCs[i].Merge(rel[i].to)
			}
		}
	}
}

// TestStateDeepCopiesArrivalClocks: the arrival-clock buffers are reused
// across barrier episodes, so a snapshot — and every manager restored from
// it — must own its copies. A fork refilling its buffers at its next
// barrier must not write into the snapshot or a sibling fork.
func TestStateDeepCopiesArrivalClocks(t *testing.T) {
	env := &proto.Env{Spaces: make([]*mem.Space, 2)}
	live := New(env)
	live.barVCs = []proto.VC{{1, 0}, {0, 1}}
	live.barCount = 2
	snap := live.CaptureState()
	a, b := New(env), New(env)
	a.RestoreState(snap)
	b.RestoreState(snap)
	live.barVCs[0][0], a.barVCs[0][0] = 7, 8
	if snap.barVCs[0][0] != 1 || b.barVCs[0][0] != 1 || a.barVCs[0][0] != 8 {
		t.Fatalf("arrival clocks alias: live %v snapshot %v fork a %v fork b %v",
			live.barVCs[0], snap.barVCs[0], a.barVCs[0], b.barVCs[0])
	}
}
