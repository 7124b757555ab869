package mem

import "testing"

var keptLists = NewKept[[]int]()

// TestKeptHandsBackWhole: a Kept value comes back as it was Put, contents and
// all; an empty pool hands out the zero value and counts a miss; StackSlabs
// reaches the pool, parks its values on a stack it drops at restore, and
// never shows them to its check, which wants zero bytes.
func TestKeptHandsBackWhole(t *testing.T) {
	checked := 0
	restore := StackSlabs(func([]byte) { checked++ })
	c0 := keptLists.Counts()
	if v := keptLists.Get(); v != nil {
		t.Fatalf("an empty pool handed out %v", v)
	}
	keptLists.Put([]int{1, 2, 3})
	keptLists.Put([]int{4})
	if v := keptLists.Get(); len(v) != 1 || v[0] != 4 {
		t.Fatalf("Get = %v, want the last value Put, [4]", v)
	}
	if v := keptLists.Get(); len(v) != 3 || v[2] != 3 {
		t.Fatalf("Get = %v, want [1 2 3]", v)
	}
	c := keptLists.Counts()
	if c.Hits-c0.Hits != 2 || c.Misses-c0.Misses != 1 || checked != 0 {
		t.Fatalf("%d hits, %d misses, %d values checked; want 2, 1 and 0", c.Hits-c0.Hits, c.Misses-c0.Misses, checked)
	}
	keptLists.Put([]int{5})
	restore()
	restore = StackSlabs(nil)
	defer restore()
	if v := keptLists.Get(); v != nil {
		t.Fatalf("a value Put under one StackSlabs came back under the next: %v", v)
	}
}
