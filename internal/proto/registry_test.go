// Registry tests live in an external test package so they can pull in the
// real protocol packages (which import proto) and assert against the
// production registrations, not synthetic ones.
package proto_test

import (
	"slices"
	"testing"

	"dsmsim/internal/proto"

	_ "dsmsim/internal/proto/hlrc"
	_ "dsmsim/internal/proto/sc"
	_ "dsmsim/internal/proto/swlrc"
	_ "dsmsim/internal/proto/tlc"
)

// knownNames filters names down to the production protocols, in the order
// given: tests below add synthetic registrations to the global registry,
// so exact-slice comparisons must ignore them.
func knownNames(names []string) []string {
	known := []string{"sc", "dc", "swlrc", "hlrc", "tlc"}
	var out []string
	for _, n := range names {
		if slices.Contains(known, n) {
			out = append(out, n)
		}
	}
	return out
}

// TestRegisteredOrder: the production protocols iterate in paper order
// first (sc, then the consistency relaxations), extensions after.
func TestRegisteredOrder(t *testing.T) {
	want := []string{"sc", "dc", "swlrc", "hlrc", "tlc"}
	if got := knownNames(proto.Names()); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	names := proto.Names()
	for i := 1; i < len(names); i++ {
		ra, _ := proto.Lookup(names[i-1])
		rb, _ := proto.Lookup(names[i])
		a, b := ra.Meta, rb.Meta
		if a.Order > b.Order || (a.Order == b.Order && a.Name > b.Name) {
			t.Fatalf("Names() out of order at %d: %q (%d) before %q (%d)",
				i, a.Name, a.Order, b.Name, b.Order)
		}
	}
}

// TestPaperNames: exactly the paper's three-protocol matrix, in paper
// order — dc and tlc are extensions and must not leak in.
func TestPaperNames(t *testing.T) {
	want := []string{"sc", "swlrc", "hlrc"}
	if got := proto.PaperNames(); !slices.Equal(got, want) {
		t.Fatalf("PaperNames() = %v, want %v", got, want)
	}
}

// TestLookup: every production name resolves with consistent metadata and
// a usable factory; unknown names don't.
func TestLookup(t *testing.T) {
	for _, name := range []string{"sc", "dc", "swlrc", "hlrc", "tlc"} {
		reg, ok := proto.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if reg.Meta.Name != name {
			t.Errorf("Lookup(%q).Meta.Name = %q", name, reg.Meta.Name)
		}
		if reg.Meta.Title == "" {
			t.Errorf("%q: empty title", name)
		}
		if reg.New == nil {
			t.Errorf("%q: nil factory", name)
		}
	}
	if _, ok := proto.Lookup("nonesuch"); ok {
		t.Fatal("Lookup of unregistered name succeeded")
	}
	clocked := map[string]bool{"swlrc": true, "hlrc": true}
	for _, name := range []string{"sc", "dc", "swlrc", "hlrc", "tlc"} {
		reg, _ := proto.Lookup(name)
		if reg.Meta.NeedsClocks != clocked[name] {
			t.Errorf("%q: NeedsClocks = %v, want %v", name, reg.Meta.NeedsClocks, clocked[name])
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestRegisterValidation: duplicate names, empty names and nil factories
// are programming errors and panic at init time.
func TestRegisterValidation(t *testing.T) {
	fake := func(*proto.Env) proto.Protocol { return nil }
	proto.Register("test-dup-zz", proto.Meta{Title: "synthetic", Order: 9000}, fake)
	mustPanic(t, "duplicate registration", func() {
		proto.Register("test-dup-zz", proto.Meta{Title: "synthetic", Order: 9001}, fake)
	})
	mustPanic(t, "empty name", func() {
		proto.Register("", proto.Meta{Title: "synthetic"}, fake)
	})
	mustPanic(t, "nil factory", func() {
		proto.Register("test-nilfactory-zz", proto.Meta{Title: "synthetic"}, nil)
	})
}

// TestRegisterOrderInsertion: a late registration with a mid-range order
// lands between its neighbours, not at the end.
func TestRegisterOrderInsertion(t *testing.T) {
	fake := func(*proto.Env) proto.Protocol { return nil }
	proto.Register("test-order-b", proto.Meta{Title: "synthetic", Order: 9100}, fake)
	proto.Register("test-order-a", proto.Meta{Title: "synthetic", Order: 9100}, fake)
	proto.Register("test-order-0", proto.Meta{Title: "synthetic", Order: 9050}, fake)
	names := proto.Names()
	i0 := slices.Index(names, "test-order-0")
	ia := slices.Index(names, "test-order-a")
	ib := slices.Index(names, "test-order-b")
	if !(i0 < ia && ia < ib) {
		t.Fatalf("insertion order wrong: 0@%d a@%d b@%d in %v", i0, ia, ib, names)
	}
}
