package digest

import (
	"fmt"
	"strings"
	"testing"
)

// TestDigestZerosEqualsZeroBytes: Zeros(n) is n zero bytes folded one by
// one, from any starting state, and Int(0) is eight of them — the contract
// mem.SpaceState.Fold relies on to skip a space's untouched pages.
func TestDigestZerosEqualsZeroBytes(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 63, 4096, 4097, 1 << 20} {
		fast, slow := New(), New()
		fast.Bytes([]byte("prefix"))
		slow.Bytes([]byte("prefix"))
		fast.Zeros(n)
		slow.Bytes(make([]byte, n))
		if fast.Sum() != slow.Sum() {
			t.Errorf("Zeros(%d) = %#x, want %#x", n, fast.Sum(), slow.Sum())
		}
	}
	a, b := New(), New()
	a.Int(0)
	b.Zeros(8)
	if a.Sum() != b.Sum() {
		t.Errorf("Int(0) = %#x, Zeros(8) = %#x", a.Sum(), b.Sum())
	}
}

// parity folds only whether its value is odd.
type parity struct{ v int }

func (p *parity) Fold(d *Digest) { d.Bool(p.v%2 != 0) }

type tree struct {
	name    string
	ids     []int32
	pairs   []struct{ a, b int }
	byKey   map[int]*tree
	any     any
	p       parity
	notes   []int64 `digest:"shared"`
	kids    []tree
	skipped func() `digest:"-"`
}

// TestWalk: the walk folds what a value holds, not how it is held — map
// insertion order, a nil slice against an empty one and a left-out field
// do not show, a Folder folds itself — and moves with every value. A Copy
// digests like its source, over a zero value or a used one, and a change to
// it leaves the source alone, but for a shared field, which keeps its
// backing array.
func TestWalk(t *testing.T) {
	mk := func() *tree {
		return &tree{name: "a", ids: []int32{1, 2}, pairs: []struct{ a, b int }{{1, 2}},
			byKey: map[int]*tree{1: {ids: []int32{}}, 2: nil}, any: &parity{3}, p: parity{1}, notes: []int64{7},
			kids: []tree{{}, {ids: []int32{5}}}}
	}
	base := Of(mk())
	same := mk()
	same.byKey = map[int]*tree{2: nil, 1: {}}
	same.p.v, same.skipped = 5, func() {}
	if Of(same) != base {
		t.Error("an equal value digests differently")
	}
	src := mk()
	for name, change := range map[string]func(*tree){
		"string":    func(v *tree) { v.name = "b" },
		"slice":     func(v *tree) { v.ids[1]++ },
		"length":    func(v *tree) { v.ids = v.ids[:1] },
		"struct":    func(v *tree) { v.pairs[0].b++ },
		"map value": func(v *tree) { v.byKey[1].name = "c" },
		"map key":   func(v *tree) { v.byKey[3] = v.byKey[2]; delete(v.byKey, 2) },
		"nil":       func(v *tree) { v.byKey[2] = &tree{} },
		"interface": func(v *tree) { v.any = nil },
		"folder":    func(v *tree) { v.p.v++ },
		"shared":    func(v *tree) { v.notes = []int64{8} },
		"deep":      func(v *tree) { v.byKey[1].ids = append(v.byKey[1].ids, 4) },
		"boxed":     func(v *tree) { v.any.(*parity).v++ },
		"element":   func(v *tree) { v.kids[1].ids[0]++ },
	} {
		v := mk()
		change(v)
		if Of(v) == base {
			t.Errorf("%s: changed, digest did not move", name)
		}
		var c tree
		Copy(&c, src)
		if Of(&c) != base {
			t.Errorf("%s: a copy digests differently", name)
		}
		change(&c)
		if Of(&c) == base || Of(src) != base {
			t.Errorf("%s: changing a copy moved it %v, moved its source %v", name, Of(&c) != base, Of(src) != base)
		}
		Copy(v, src)
		if Of(v) != base {
			t.Errorf("%s: a copy over a used value digests differently", name)
		}
	}
	var c tree
	Copy(&c, src)
	if &c.notes[0] != &src.notes[0] || &c.ids[0] == &src.ids[0] {
		t.Error("a shared field was copied, or a plain one shared")
	}
	panics(t, "digest.tree.any: cannot fold a func", func() {
		v := mk()
		v.any = func() {}
		Of(v)
	})
	panics(t, "digest.tree.byKey.any: cannot copy a chan", func() {
		v := mk()
		v.byKey[1].any = make(chan int)
		Copy(&c, v)
	})
}

// panics checks that f panics with a message containing want.
func panics(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("recovered %v, want a panic naming %q", r, want)
		}
	}()
	f()
}
