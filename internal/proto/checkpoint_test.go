package proto

import (
	"strings"
	"testing"

	"dsmsim/internal/digest"
)

// ckState stands in for a protocol's checkpointable state: a slice, a map
// of slices and a copyset, so a restore that aliased any of them would show.
type ckState struct {
	owners  []int
	writers map[int][]int
	sharers Copyset
}

// TestCheckpointHelpers: Capture refuses while a transaction is open,
// Restore refuses a snapshot of another state type, and a capture restored
// into a fresh value digests equal to the original and shares no memory
// with it.
func TestCheckpointHelpers(t *testing.T) {
	live := func() *ckState {
		s := &ckState{owners: []int{2, -1, 0}, writers: map[int][]int{1: {3, 4}, 7: {0}}}
		s.sharers.Add(5)
		s.sharers.Add(130)
		return s
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"capture refused in flight", func(t *testing.T) {
			snap, err := Capture(live(), 2)
			if err == nil || snap != nil || !strings.Contains(err.Error(), "2 transactions in flight") {
				t.Fatalf("Capture with 2 open = (%v, %v), want a refusal naming the count", snap, err)
			}
		}},
		{"restore refused for a foreign snapshot", func(t *testing.T) {
			var dst ckState
			err := Restore(&dst, &struct{ owners []int }{owners: []int{1}})
			if err == nil || !strings.Contains(err.Error(), "ckState") {
				t.Fatalf("Restore of a foreign type = %v, want a refusal naming the state type", err)
			}
			if dst.owners != nil {
				t.Fatal("a refused Restore wrote the state")
			}
		}},
		{"round trip is deep", func(t *testing.T) {
			src := live()
			want := digest.Of(src)
			snap, err := Capture(src, 0)
			if err != nil {
				t.Fatal(err)
			}
			var dst ckState
			if err := Restore(&dst, snap); err != nil {
				t.Fatal(err)
			}
			if got := digest.Of(&dst); got != want {
				t.Fatalf("restored digest %x, original %x", got, want)
			}
			dst.owners[0] = 9
			dst.writers[1][0] = 9
			dst.sharers.Add(9)
			if digest.Of(src) != want || digest.Of(snap.(*ckState)) != want {
				t.Fatal("writing the restored state changed the original or the snapshot")
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
