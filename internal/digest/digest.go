// Package digest fingerprints and copies simulator state. Its Digest is a
// small deterministic FNV-1a accumulator. Of folds every field reachable
// from a value into one, so the checkpoint layer can assert the
// fork(prefix) ≡ fresh-run invariant cheaply at every barrier epoch: two
// states digest equal iff they hold the same values, however they were
// reached. Copy deep-copies the same value, which is how every layer
// captures and restores its state. Both run one plan per type, compiled
// when the type is first met: its kind, field offsets, `digest:` tags and
// whether it is a Folder are decided once, not at every value.
package digest

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

// Digest is the accumulator. Two digests are equal iff the same values
// were fed in the same order.
type Digest struct{ h uint64 }

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// New returns an empty digest.
func New() *Digest { return &Digest{h: fnvOffset} }

func (d *Digest) mix(b byte) { d.h = (d.h ^ uint64(b)) * fnvPrime }

// U64 folds v into the digest.
func (d *Digest) U64(v uint64) {
	for i := 0; i < 8; i++ {
		d.mix(byte(v))
		v >>= 8
	}
}

// I64 folds v into the digest.
func (d *Digest) I64(v int64) { d.U64(uint64(v)) }

// Int folds v into the digest.
func (d *Digest) Int(v int) { d.U64(uint64(int64(v))) }

// Bool folds v into the digest.
func (d *Digest) Bool(v bool) {
	if v {
		d.mix(1)
	} else {
		d.mix(0)
	}
}

// Bytes folds a byte slice into the digest.
func (d *Digest) Bytes(p []byte) {
	for _, b := range p {
		d.mix(b)
	}
}

// Zeros folds n zero bytes into the digest in O(log n): mixing a zero byte
// is one multiplication by the FNV prime, so a run of them is a power of it.
// This is what lets a checkpoint digest a space's untouched pages without
// holding or walking them (mem.SpaceState.Fold).
func (d *Digest) Zeros(n int) {
	for p := fnvPrime; n > 0; n >>= 1 {
		if n&1 != 0 {
			d.h *= p
		}
		p *= p
	}
}

// Sum returns the accumulated fingerprint.
func (d *Digest) Sum() uint64 { return d.h }

// Folder is implemented by the few types whose representation differs from
// the value they stand for — a sparse table, a packed snapshot — and which
// therefore fold themselves. Of calls Fold instead of descending into their
// fields; Copy copies them like any other struct, unless they are Copiers.
type Folder interface{ Fold(d *Digest) }

// Copier is implemented by the few types that copy themselves — a sparse
// table whose storage comes from a pool. Copy calls CopyFrom on the
// destination, with a pointer to the source of the same type, instead of
// descending into their fields. CopyFrom keeps Copy's contract: afterwards
// the two share nothing a write through either could reach, and they digest
// alike.
type Copier interface{ CopyFrom(src any) }

// Of returns the digest of everything reachable from *p. It folds
// integers, bools and strings; slices and arrays element by element, byte
// slices in bulk; maps (integer keys) in ascending key order; pointers and
// interfaces as a nil bit and then what they point to. Unexported fields
// are read like exported ones. A Folder folds itself, and a struct field
// tagged `digest:"-"` is left out. A kind Of cannot fold (a func, a chan)
// panics with the path of the field that holds it: nothing is skipped
// silently. Pointers are followed, not compared: a value shared by two
// paths folds twice, and the state must hold no cycle.
func Of[T any](p *T) uint64 {
	defer rethrow(reflect.TypeFor[T]())
	d := &Digest{h: fnvOffset}
	planOf(reflect.TypeFor[T]()).fold(d, unsafe.Pointer(p))
	return d.h
}

// Copy overwrites *dst with a deep copy of *src: afterwards the two share
// nothing a write through either could reach, and Of(dst) == Of(src).
// Pointer-free values move in bulk. Pointers, maps and interfaces get new
// targets; a map entry allocates only what its value holds. A slice whose
// length in *dst equals src's is overwritten in place, so a restore reuses
// what a freshly built value holds. Funcs are copied as they are, and so is
// a field tagged `digest:"shared"` (folded, but copied by reference: only
// for data immutable once published); `digest:"-"` fields are copied like
// any other. A Copier copies itself. A chan panics with its path, as in Of.
// *dst must share no memory with *src or within itself, as a zero or
// freshly built value does.
func Copy[T any](dst, src *T) {
	defer rethrow(reflect.TypeFor[T]())
	planOf(reflect.TypeFor[T]()).copy(unsafe.Pointer(dst), unsafe.Pointer(src))
}

// Clone returns a new deep copy of *src (see Copy).
func Clone[T any](src *T) *T {
	c := new(T)
	Copy(c, src)
	return c
}

// unfoldable is the panic of a value neither operation can handle; each
// struct field it unwinds through puts its name in front of path.
type unfoldable struct{ path, what string }

// rethrow, deferred by Of and Copy, names the failing field's path.
func rethrow(root reflect.Type) {
	if r := recover(); r != nil {
		if e, ok := r.(*unfoldable); ok {
			r = fmt.Sprintf("digest: %s%s: %s", root, e.path, e.what)
		}
		panic(r)
	}
}

// plan is what Of and Copy know of one type.
type plan struct {
	t       reflect.Type
	kind    reflect.Kind
	size    uintptr
	flat    bool  // holds no pointer: copied as its bytes
	folder  bool  // a struct whose pointer is a Folder
	copier  bool  // a struct whose pointer is a Copier
	risky   bool  // Copy may panic below it, so a struct names its fields on the way up
	elem    *plan // of an array, slice or map; a pointer's target
	key     *plan // of a map
	fields  []field
	scratch sync.Pool // a map's *mapScratch
}

type field struct {
	path         string // "." and the name
	off          uintptr
	p            *plan
	skip, shared bool // tagged `digest:"-"`, `digest:"shared"`
}

var (
	plans     sync.Map // reflect.Type → *plan
	compiling sync.Mutex
)

// planOf returns t's plan, compiling it and every type it reaches on first
// use; they are published together, so no reader meets half a cycle.
func planOf(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	compiling.Lock()
	defer compiling.Unlock()
	seen := map[reflect.Type]*plan{}
	p := compile(t, seen)
	for t, q := range seen {
		plans.Store(t, q)
	}
	return p
}

func compile(t reflect.Type, seen map[reflect.Type]*plan) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	if p := seen[t]; p != nil {
		return p // a recursive type, met again below a pointer, slice or map
	}
	p := &plan{t: t, kind: t.Kind(), size: t.Size(), risky: true} // until known: t may recur below
	seen[t] = p
	switch p.kind {
	case reflect.Array, reflect.Slice, reflect.Pointer:
		p.elem = compile(t.Elem(), seen)
		p.flat, p.risky = p.kind == reflect.Array && p.elem.flat, p.elem.risky
	case reflect.Map:
		p.key, p.elem = compile(t.Key(), seen), compile(t.Elem(), seen)
		p.risky = p.elem.risky || !p.key.flat && p.key.kind != reflect.String
		p.scratch.New = func() any {
			return &mapScratch{key: reflect.New(t.Key()).Elem(), val: reflect.New(t.Elem()).Elem(), c: reflect.New(t.Elem()).Elem()}
		}
	case reflect.Struct:
		p.folder = reflect.PointerTo(t).Implements(reflect.TypeFor[Folder]())
		p.copier = reflect.PointerTo(t).Implements(reflect.TypeFor[Copier]())
		p.flat, p.risky = true, false
		for i := range t.NumField() {
			sf := t.Field(i)
			tag := sf.Tag.Get("digest")
			f := field{"." + sf.Name, sf.Offset, compile(sf.Type, seen), tag == "-", tag == "shared"}
			p.fields, p.flat, p.risky = append(p.fields, f), p.flat && f.p.flat, p.risky || f.p.risky && !f.shared
		}
	default:
		p.flat = p.kind <= reflect.Complex128 // a bool or a number
		p.risky = p.kind == reflect.Chan || p.kind == reflect.Interface || p.kind == reflect.UnsafePointer
	}
	return p
}

// annotate, deferred by a struct's fold and copy, puts *path, the field
// being walked, in front of the path of a panic unwinding through it.
func annotate(path *string) {
	if r := recover(); r != nil {
		if e, ok := r.(*unfoldable); ok {
			e.path = *path + e.path
		}
		panic(r)
	}
}

type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// boxed returns the address of a copy of v, which need not be addressable.
func boxed(v reflect.Value) unsafe.Pointer {
	c := reflect.New(v.Type())
	c.Elem().Set(v)
	return c.UnsafePointer()
}

// fold folds the value of p's type at ptr.
func (p *plan) fold(d *Digest, ptr unsafe.Pointer) {
	switch p.kind {
	case reflect.Bool:
		d.Bool(*(*bool)(ptr))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.I64(reflect.NewAt(p.t, ptr).Elem().Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.U64(reflect.NewAt(p.t, ptr).Elem().Uint())
	case reflect.String:
		s := *(*string)(ptr)
		d.Int(len(s))
		d.Bytes(unsafe.Slice(unsafe.StringData(s), len(s)))
	case reflect.Slice, reflect.Array:
		base, n := ptr, 0
		if s := (*sliceHeader)(ptr); p.kind == reflect.Slice {
			base, n = s.data, s.len
		} else {
			n = p.t.Len()
		}
		if d.Int(n); p.kind == reflect.Slice && p.elem.kind == reflect.Uint8 {
			d.Bytes(unsafe.Slice((*byte)(base), n))
			return
		}
		for i := range n {
			p.elem.fold(d, unsafe.Add(base, uintptr(i)*p.elem.size))
		}
	case reflect.Map:
		if k := p.key.kind; k < reflect.Int || k > reflect.Int64 {
			panic(&unfoldable{what: "cannot order map keys of kind " + k.String()})
		}
		m := reflect.NewAt(p.t, ptr).Elem()
		keys := m.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.Int(), b.Int()) })
		d.Int(len(keys))
		for _, k := range keys {
			d.I64(k.Int())
			p.elem.fold(d, boxed(m.MapIndex(k)))
		}
	case reflect.Pointer:
		target := *(*unsafe.Pointer)(ptr)
		if d.Bool(target != nil); target != nil {
			p.elem.fold(d, target)
		}
	case reflect.Interface:
		v := reflect.NewAt(p.t, ptr).Elem()
		if d.Bool(!v.IsNil()); !v.IsNil() {
			planOf(v.Elem().Type()).fold(d, boxed(v.Elem()))
		}
	case reflect.Struct:
		if p.folder {
			reflect.NewAt(p.t, ptr).Interface().(Folder).Fold(d)
			return
		}
		var path string
		defer annotate(&path)
		for _, f := range p.fields {
			if path = f.path; !f.skip {
				f.p.fold(d, unsafe.Add(ptr, f.off))
			}
		}
	default:
		panic(&unfoldable{what: "cannot fold a " + p.kind.String()})
	}
}

// copy makes the value of p's type at dst a deep copy of the one at src.
func (p *plan) copy(dst, src unsafe.Pointer) {
	if p.flat {
		move(dst, src, p.size)
		return
	}
	switch p.kind {
	case reflect.String, reflect.Func:
		p.share(dst, src)
	case reflect.Slice:
		s, d := (*sliceHeader)(src), (*sliceHeader)(dst)
		if s.len == 0 { // nil, or empty but not nil: no array to copy
			*d = sliceHeader{data: s.data}
			return
		}
		if d.data == nil || d.len != s.len {
			// Grow allocates the array alone, rounded up as append does
			// (MakeSlice would put a header on the heap too).
			*d = sliceHeader{}
			reflect.NewAt(p.t, dst).Elem().Grow(s.len)
			d.len = s.len
		}
		p.elem.copyN(d.data, s.data, s.len)
	case reflect.Array:
		p.elem.copyN(dst, src, p.t.Len())
	case reflect.Pointer:
		target := *(*unsafe.Pointer)(src)
		if target != nil {
			c := reflect.New(p.elem.t).UnsafePointer()
			p.elem.copy(c, target)
			target = c
		}
		*(*unsafe.Pointer)(dst) = target
	case reflect.Map:
		p.copyMap(reflect.NewAt(p.t, dst).Elem(), reflect.NewAt(p.t, src).Elem())
	case reflect.Interface:
		v := reflect.NewAt(p.t, src).Elem()
		if !v.IsNil() {
			c := reflect.New(v.Elem().Type())
			planOf(v.Elem().Type()).copy(c.UnsafePointer(), boxed(v.Elem()))
			v = c.Elem()
		}
		reflect.NewAt(p.t, dst).Elem().Set(v)
	case reflect.Struct:
		if p.copier {
			reflect.NewAt(p.t, dst).Interface().(Copier).CopyFrom(reflect.NewAt(p.t, src).Interface())
			return
		}
		var path string
		if p.risky {
			defer annotate(&path)
		}
		for i := range p.fields {
			f := &p.fields[i]
			if path = f.path; f.shared {
				f.p.share(unsafe.Add(dst, f.off), unsafe.Add(src, f.off))
			} else {
				f.p.copy(unsafe.Add(dst, f.off), unsafe.Add(src, f.off))
			}
		}
	default:
		panic(&unfoldable{what: "cannot copy a " + p.kind.String()})
	}
}

// copyN copies n consecutive values of p's type.
func (p *plan) copyN(dst, src unsafe.Pointer, n int) {
	if p.flat {
		move(dst, src, uintptr(n)*p.size)
		return
	}
	for i := range n {
		d, s := unsafe.Add(dst, uintptr(i)*p.size), unsafe.Add(src, uintptr(i)*p.size)
		if p.kind == reflect.Struct && p.bare(d) && p.bare(s) {
			move(d, s, p.size) // no reference changes, so no write barrier is skipped
		} else {
			p.copy(d, s)
		}
	}
}

// bare reports whether every reference in the struct at ptr is nil; a
// chan and an array of references are never taken for nil, as Copy must
// walk them.
func (p *plan) bare(ptr unsafe.Pointer) bool {
	for i := range p.fields {
		switch f, q := &p.fields[i], unsafe.Add(ptr, p.fields[i].off); {
		case f.p.flat:
		case f.p.kind == reflect.Struct:
			if !f.p.bare(q) {
				return false
			}
		case f.p.kind == reflect.Chan || f.p.kind == reflect.Array || *(*unsafe.Pointer)(q) != nil:
			return false // a reference's first word is nil iff the reference is
		}
	}
	return true
}

// move copies n bytes, which must hold no pointer that changes.
func move(dst, src unsafe.Pointer, n uintptr) {
	copy(unsafe.Slice((*byte)(dst), n), unsafe.Slice((*byte)(src), n))
}

// share copies the value at src to dst as it is.
func (p *plan) share(dst, src unsafe.Pointer) {
	if p.kind == reflect.Slice {
		*(*sliceHeader)(dst) = *(*sliceHeader)(src)
		return
	}
	reflect.NewAt(p.t, dst).Elem().Set(reflect.NewAt(p.t, src).Elem())
}

// mapScratch is what one map copy iterates through: the current entry's
// key and value, and the value's deep copy.
type mapScratch struct {
	it          reflect.MapIter
	key, val, c reflect.Value
}

// copyMap makes out a new map holding m's entries. Keys are copied as they
// are, so they must hold no pointer (a string is immutable); values are
// deep-copied through the scratch.
func (p *plan) copyMap(out, m reflect.Value) {
	if m.IsNil() {
		out.SetZero()
		return
	}
	if !p.key.flat && p.key.kind != reflect.String {
		panic(&unfoldable{what: "cannot copy map keys of kind " + p.key.kind.String()})
	}
	c, s := reflect.MakeMapWithSize(p.t, m.Len()), p.scratch.Get().(*mapScratch)
	for s.it.Reset(m); s.it.Next(); {
		s.key.SetIterKey(&s.it)
		s.val.SetIterValue(&s.it)
		v := s.val
		if !p.elem.flat {
			s.c.SetZero() // a slice of the same length would be overwritten in place
			p.elem.copy(s.c.Addr().UnsafePointer(), s.val.Addr().UnsafePointer())
			v = s.c
		}
		c.SetMapIndex(s.key, v)
	}
	s.it.Reset(reflect.Value{})
	p.scratch.Put(s)
	out.Set(c)
}
