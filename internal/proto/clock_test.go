package proto

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dsmsim/internal/digest"
)

// clockRun is one randomised program over a set of Clocks with the oracle
// in lock step. The oracle is the representation Clock replaced: one dense,
// privately owned VC per node, raised entry by entry. base is the oracle's
// own record of the last barrier's merged clock, kept to say when a node
// has — or has not — learned something a shared-form clock cannot hold.
type clockRun struct {
	rng    *rand.Rand
	cs     []Clock
	dense  []VC
	base   VC
	log    []string
	failed string
}

func (r *clockRun) failf(format string, args ...any) {
	if r.failed == "" {
		r.failed = fmt.Sprintf(format, args...) + "\n" + strings.Join(r.log, " ")
	}
}

func (r *clockRun) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

// check compares node's clock with the oracle through every read the
// synchronization layer uses.
func (r *clockRun) check(node int) {
	c, want := &r.cs[node], r.dense[node]
	if got := c.Dense(); fmt.Sprint(got) != fmt.Sprint(want) {
		r.failf("node %d: Dense() = %v, oracle %v", node, got, want)
	}
	j := r.rng.Intn(len(want))
	if got := c.Get(j); got != want[j] {
		r.failf("node %d: Get(%d) = %d, oracle %d", node, j, got, want[j])
	}
	iv := Interval{Node: int32(j), Index: want[j] + int32(r.rng.Intn(3)) - 1}
	if got := c.Seen(&iv); got != (iv.Index <= want[j]) {
		r.failf("node %d: Seen(%d,%d) = %v, oracle clock %v", node, iv.Node, iv.Index, got, want)
	}
	learned := false
	for k := range want {
		learned = learned || (k != node && want[k] > r.base[k])
	}
	if c.Private() != learned {
		r.failf("node %d: Private() = %v, oracle clock %v over base %v", node, c.Private(), want, r.base)
	}
}

// tick closes an interval of node.
func (r *clockRun) tick(node int) {
	idx := r.dense[node][node] + 1
	r.logf("tick(%d)=%d", node, idx)
	r.cs[node].Tick(idx)
	r.dense[node][node] = idx
	r.check(node)
}

// grant merges what from knows into to, as a lock grant from the last
// releaser does.
func (r *clockRun) grant(from, to int) {
	r.logf("grant(%d->%d)", from, to)
	sent := r.cs[from].Dense()
	r.cs[to].Merge(sent)
	r.dense[to].Merge(r.dense[from])
	r.check(to)
}

// barrier merges every clock, then rebases the nodes one at a time in a
// random order. A node that has its release is running again: between two
// rebases it may close intervals and take grants, also from nodes still on
// the old base, which are blocked and only read.
func (r *clockRun) barrier(traffic bool) {
	n := len(r.cs)
	for i := 0; i < n; i++ {
		r.tick(i) // Barrier closes the arriver's interval first
	}
	want := NewVC(n)
	for _, v := range r.dense {
		want.Merge(v)
	}
	_, merged := MergeClocks(r.cs)
	r.logf("barrier=%v", merged)
	if fmt.Sprint(merged) != fmt.Sprint(want) {
		r.failf("MergeClocks = %v, oracle %v", merged, want)
		return
	}
	if r.rng.Intn(4) == 0 {
		r.snapshot()
	}
	var released []int
	for _, i := range r.rng.Perm(n) {
		r.cs[i].Rebase(merged)
		r.dense[i].Merge(want)
		if len(released) == 0 {
			r.base = want // the oracle's base moves with the first release
		}
		released = append(released, i)
		r.check(i)
		for k := r.rng.Intn(3); k > 0; k-- {
			a := released[r.rng.Intn(len(released))]
			r.tick(a)
			if traffic {
				r.grant(r.rng.Intn(n), a)
			}
		}
	}
}

// snapshot round-trips the clocks through digest.Copy at a full barrier, as
// a checkpoint does: the restored set must read like the oracle, and writing
// it must not reach the snapshot or the live set.
func (r *clockRun) snapshot() {
	var st []Clock
	digest.Copy(&st, &r.cs)
	sum := digest.Of(&st)
	for round := 0; round < 2; round++ {
		fork := NewClocks(len(r.cs))
		digest.Copy(&fork, &st)
		for i := range fork {
			if got := fork[i].Dense(); fmt.Sprint(got) != fmt.Sprint(r.dense[i]) {
				r.failf("restore %d, node %d: %v, oracle %v", round, i, got, r.dense[i])
			}
			other := NewVC(len(fork))
			for k := range other {
				other[k] = 1 << 20
			}
			fork[i].Merge(other) // scribble over the fork
		}
	}
	if digest.Of(&st) != sum {
		r.failf("writing a restored clock changed the snapshot")
	}
	for i := range r.cs {
		r.check(i)
	}
}

// TestClockMatchesDenseOracle runs 2000 random programs of own-entry raises,
// foreign merges, barrier rebases and reads against the dense oracle. Every
// fourth program synchronizes with barriers only; check's Private assertion
// then says no clock ever left the shared form.
func TestClockMatchesDenseOracle(t *testing.T) {
	privates := 0
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		r := &clockRun{rng: rng, cs: NewClocks(n), base: NewVC(n)}
		for i := 0; i < n; i++ {
			r.dense = append(r.dense, NewVC(n))
		}
		traffic := seed%4 != 0
		for ops := 10 + rng.Intn(60); ops > 0 && r.failed == ""; ops-- {
			switch k := rng.Intn(10); {
			case k == 0:
				r.barrier(traffic)
			case k < 5 && traffic:
				r.grant(rng.Intn(n), rng.Intn(n))
			default:
				r.tick(rng.Intn(n))
			}
			for i := range r.cs {
				if r.cs[i].Private() {
					privates++
				}
			}
		}
		if r.failed != "" {
			t.Fatalf("seed %d, %d nodes: %s", seed, n, r.failed)
		}
	}
	if privates == 0 {
		t.Fatal("no program ever drove a clock into its private form")
	}
}

// TestClockPrivateCopyReusesBuffer: a node pays for its private vector once,
// and a grant copies the releaser's clock into a buffer it reuses. After
// the first grant-then-barrier cycle, further cycles allocate only the
// barrier's merged clock.
func TestClockPrivateCopyReusesBuffer(t *testing.T) {
	cs := NewClocks(8)
	next := int32(0)
	var grant VC
	cycle := func() {
		next++
		cs[1].Tick(next)
		grant = cs[1].DenseInto(grant) // the grant's payload, recycled
		cs[0].Merge(grant)
		if !cs[0].Private() {
			t.Fatal("a grant carrying a new interval left the clock shared")
		}
		_, merged := MergeClocks(cs) // one VC
		for i := range cs {
			cs[i].Rebase(merged)
		}
	}
	cycle()
	if got := testing.AllocsPerRun(20, cycle); got > 1 {
		t.Fatalf("a grant-and-barrier cycle allocates %.0f objects, want 1 (the merged VC)", got)
	}
}
