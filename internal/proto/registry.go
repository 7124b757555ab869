package proto

import (
	"fmt"
	"sort"
)

// Meta is the registry's per-protocol metadata: everything the rest of
// the system needs to know about a protocol without constructing it.
// The protocol set, its presentation order, the CLI help strings and the
// paper's three-protocol matrix are all derived from these entries, so
// adding a protocol is one Register call in its package init — no switch
// statements elsewhere.
type Meta struct {
	// Name is the short protocol name ("sc", "hlrc", ...), filled in by
	// Register from its name argument.
	Name string
	// Title is a one-line description used in CLI help and listings.
	Title string
	// Order fixes the deterministic iteration order of Names and
	// PaperNames: ascending Order, ties broken by Name. The paper's
	// protocols come first, in the paper's order.
	Order int
	// Paper marks the protocols of the paper's evaluation matrix
	// (SC, SW-LRC, HLRC); PaperNames and dsmsim.Protocols list exactly
	// these, so extensions never leak into the reproduction tables.
	Paper bool
	// NeedsClocks marks protocols that exchange vector clocks and write
	// notices through the interval log at synchronization (the LRC
	// family). The core allocates Env.Log and Env.VCs only for these,
	// and the synchronization layer ships clocks and notices exactly
	// when the log exists.
	NeedsClocks bool
}

// Registration pairs a protocol's metadata with its factory.
type Registration struct {
	Meta Meta
	New  func(*Env) Protocol
}

var (
	registry = map[string]*Registration{}
	ordered  []*Registration
)

// Register adds a protocol under name. Protocol packages call it from
// init; the core triggers those inits with blank imports. Registering a
// duplicate name, an empty name or a nil factory panics: these are
// programming errors, caught by the registry unit suite.
func Register(name string, meta Meta, factory func(*Env) Protocol) {
	if name == "" {
		panic("proto: Register with empty protocol name")
	}
	if factory == nil {
		panic(fmt.Sprintf("proto: Register(%q) with nil factory", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("proto: protocol %q registered twice", name))
	}
	meta.Name = name
	reg := &Registration{Meta: meta, New: factory}
	registry[name] = reg
	i := sort.Search(len(ordered), func(i int) bool {
		if ordered[i].Meta.Order != meta.Order {
			return ordered[i].Meta.Order > meta.Order
		}
		return ordered[i].Meta.Name > name
	})
	ordered = append(ordered, nil)
	copy(ordered[i+1:], ordered[i:])
	ordered[i] = reg
}

// Lookup returns the registration for name, if any.
func Lookup(name string) (*Registration, bool) {
	reg, ok := registry[name]
	return reg, ok
}

// Names returns every registered protocol name in deterministic order.
func Names() []string {
	names := make([]string, len(ordered))
	for i, reg := range ordered {
		names[i] = reg.Meta.Name
	}
	return names
}

// PaperNames returns the names of the paper's protocol matrix (the
// registrations with Meta.Paper set), in registry order.
func PaperNames() []string {
	var names []string
	for _, reg := range ordered {
		if reg.Meta.Paper {
			names = append(names, reg.Meta.Name)
		}
	}
	return names
}
