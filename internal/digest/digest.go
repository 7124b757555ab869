// Package digest fingerprints simulator state. Its Digest is a small
// deterministic FNV-1a accumulator, and Of folds into one every field
// reachable from a value, so the checkpoint layer can assert the
// fork(prefix) ≡ fresh-run invariant cheaply at every barrier epoch: two
// states digest equal iff they hold the same values, however they were
// reached.
package digest

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
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
// therefore fold themselves. The walk calls Fold instead of descending
// into their fields.
type Folder interface{ Fold(d *Digest) }

// Of returns the digest of everything reachable from *p. The walk folds
// integers, bools and strings; slices and arrays element by element, byte
// slices in bulk; maps (integer keys) in ascending key order; pointers and
// interfaces as a nil bit and then what they point to. Unexported fields
// are read like exported ones. A Folder folds itself, and a struct field
// tagged `digest:"-"` is left out. A kind the walk cannot fold (a func, a
// chan) panics with the path of the field that holds it: nothing is
// skipped silently. Pointers are followed, not compared: a value shared by
// two paths folds twice, and the state must hold no cycle.
func Of[T any](p *T) uint64 {
	d := Digest{h: fnvOffset}
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(*unfoldable); ok {
				r = fmt.Sprintf("digest: %s%s: %s", reflect.TypeFor[T](), e.path, e.what)
			}
			panic(r)
		}
	}()
	d.walk(reflect.ValueOf(p).Elem())
	return d.h
}

// unfoldable is the panic of a walk that met a value it cannot fold; each
// struct field it unwinds through puts its name in front of path.
type unfoldable struct{ path, what string }

func (d *Digest) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		d.Bool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.I64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.U64(v.Uint())
	case reflect.String:
		d.Int(v.Len())
		d.Bytes([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		d.Int(v.Len())
		if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8 {
			d.Bytes(v.Bytes())
			return
		}
		for i := range v.Len() {
			d.walk(v.Index(i))
		}
	case reflect.Map:
		if k := v.Type().Key().Kind(); k < reflect.Int || k > reflect.Int64 {
			panic(&unfoldable{what: "cannot order map keys of kind " + k.String()})
		}
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return cmp.Compare(a.Int(), b.Int()) })
		d.Int(len(keys))
		for _, k := range keys {
			d.walk(k)
			d.walk(v.MapIndex(k))
		}
	case reflect.Pointer, reflect.Interface:
		d.Bool(!v.IsNil())
		if !v.IsNil() {
			d.walk(v.Elem())
		}
	case reflect.Struct:
		if !v.CanAddr() { // a map value or an interface's: walk a copy
			c := reflect.New(v.Type()).Elem()
			c.Set(v)
			v = c
		}
		if f, ok := reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Interface().(Folder); ok {
			c := *d // d itself stays off the heap
			f.Fold(&c)
			*d = c
			return
		}
		for i := range v.NumField() {
			if sf := v.Type().Field(i); sf.Tag.Get("digest") != "-" {
				d.field(v.Field(i), sf.Name)
			}
		}
	default:
		panic(&unfoldable{what: "cannot fold a " + v.Kind().String()})
	}
}

// field walks one struct field, unexported ones included, naming it in the
// path of a failure below it.
func (d *Digest) field(f reflect.Value, name string) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(*unfoldable); ok {
				e.path = "." + name + e.path
			}
			panic(r)
		}
	}()
	if !f.CanInterface() { // drop the read-only mark, so a copy of a map value may be made
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	}
	d.walk(f)
}
