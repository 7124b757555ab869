package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"dsmsim/internal/digest"
	"dsmsim/internal/faults"
	"dsmsim/internal/mem"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
)

// TestDigestCoversEndpointState: restore copies every field of a checkpoint
// back, so the fork oracle must see every one of them. Under every
// registered protocol, each integer and bool reachable from a digest.Copy
// of a checkpoint — endpoints, statistics and their histograms, the phase
// accountant, homes, log, clocks, locks, the protocol's own state, the
// injector's cursor, unexported fields included — is perturbed alone, and
// the copy's digest has to move each time while the checkpoint's stays put:
// the copy shares nothing a write can reach. A `digest:"shared"` field is
// immutable, so the copy's is replaced by a private one before it is
// perturbed. Only fields tagged `digest:"-"` are left alone, and the
// insides of a space and of the link table, whose own tests pin their
// digests (mem.TestStateRestoreMatchesFullCopy,
// network.TestLinkStateRoundTrip). Two forks of the checkpoint then run to
// the same Result and leave its digest where it was.
func TestDigestCoversEndpointState(t *testing.T) {
	// minPerturbed is below the count of every protocol: a walk that stops
	// reaching part of the checkpoint fails here.
	const minPerturbed = 2500
	opaque := map[reflect.Type]bool{reflect.TypeFor[mem.SpaceState](): true, reflect.TypeFor[network.LinkState](): true}
	plan := faults.NewPlan(faults.Drop(0.01), faults.Seed(7), faults.StartAtBarrier(3))
	for _, protocol := range proto.Names() {
		t.Run(protocol, func(t *testing.T) {
			t.Parallel()
			m, err := NewMachine(Config{Nodes: 4, BlockSize: 1024, Protocol: protocol, Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			cp, err := m.RunToBarrier(context.Background(), acctApp(), 2)
			if err != nil {
				t.Fatal(err)
			}
			base := cp.Digest()
			c := new(Checkpoint)
			digest.Copy(c, cp)
			perturbed, unmoved := 0, 0
			// walk perturbs every integer and bool under v; commit writes v
			// back where it is a copy (a map value).
			var walk func(v reflect.Value, path string, commit func())
			walk = func(v reflect.Value, path string, commit func()) {
				if !v.CanSet() && v.CanAddr() {
					// An unexported field of a snapshot type: restore copies
					// it all the same.
					v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
				}
				if opaque[v.Type()] {
					return
				}
				set := func(x reflect.Value) {
					if !v.CanSet() {
						t.Fatalf("%s: cannot perturb", path)
					}
					old := reflect.ValueOf(v.Interface())
					v.Set(x)
					commit()
					perturbed++
					if c.Digest() == base {
						unmoved++
						t.Errorf("%s: perturbed, digest unchanged", path)
					}
					if cp.Digest() != base {
						t.Fatalf("%s: perturbing the copy moved the checkpoint's digest", path)
					}
					v.Set(old)
					commit()
				}
				switch v.Kind() {
				case reflect.Pointer, reflect.Interface:
					if !v.IsNil() {
						walk(v.Elem(), path, commit)
					}
				case reflect.Slice, reflect.Array:
					for i := 0; i < v.Len(); i++ {
						walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i), commit)
					}
				case reflect.Map:
					for _, k := range v.MapKeys() {
						e := reflect.New(v.Type().Elem()).Elem()
						e.Set(v.MapIndex(k))
						walk(e, fmt.Sprintf("%s[%v]", path, k), func() { v.SetMapIndex(k, e); commit() })
					}
				case reflect.Struct:
					for i := 0; i < v.NumField(); i++ {
						f := v.Type().Field(i)
						switch f.Tag.Get("digest") {
						case "-":
							continue
						case "shared":
							unshare(t, v.Field(i))
						}
						walk(v.Field(i), path+"."+f.Name, commit)
					}
				case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
					set(reflect.ValueOf(v.Int() + 1).Convert(v.Type()))
				case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
					set(reflect.ValueOf(v.Uint() + 1).Convert(v.Type()))
				case reflect.Bool:
					set(reflect.ValueOf(!v.Bool()).Convert(v.Type()))
				}
			}
			walk(reflect.ValueOf(c).Elem(), "cp", func() {})
			t.Logf("%d integers and bools perturbed, %d left the digest unmoved", perturbed, unmoved)
			if perturbed < minPerturbed {
				t.Errorf("perturbed %d integers and bools, want at least %d", perturbed, minPerturbed)
			}
			if c.Digest() != base {
				t.Fatal("digest did not return to its value once every field was restored")
			}
			var first *Result
			for run := range 2 {
				res, err := m.RunFromCheckpoint(context.Background(), cp, acctApp())
				if err != nil {
					t.Fatal(err)
				}
				res.Heap = nil
				if run == 0 {
					first = res
				} else if !reflect.DeepEqual(first, res) {
					t.Errorf("two forks of one checkpoint differ:\n%+v\n%+v", first, res)
				}
				if cp.Digest() != base {
					t.Fatalf("fork %d moved the checkpoint's digest", run)
				}
			}
		})
	}
}

// unshare gives the settable field f, a shared slice, a backing array of
// its own: what a writer of data shared by reference has to do first.
func unshare(t *testing.T, f reflect.Value) {
	f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	if f.Kind() != reflect.Slice {
		t.Fatalf("a shared %s: only slices are unshared", f.Type())
	}
	if !f.IsNil() {
		own := reflect.MakeSlice(f.Type(), f.Len(), f.Len())
		reflect.Copy(own, f)
		f.Set(own)
	}
}
