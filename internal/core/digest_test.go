package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"dsmsim/internal/faults"
)

// TestDigestCoversEndpointState: restore copies every field of a captured
// network.EndpointState, the phase accountant's state and the fault
// injector's cursor back, so the fork oracle must see every one of them.
// Each integer field — the endpoint's timing memory, every traffic counter
// and both latency histograms' Count and Sum; each node's epoch, last cut and
// stats at it, and every phase so far; the cursor — is perturbed alone, and
// the digest has to move each time.
func TestDigestCoversEndpointState(t *testing.T) {
	plan := faults.NewPlan(faults.Drop(0.01), faults.Seed(7), faults.StartAtBarrier(3))
	m, err := NewMachine(Config{Nodes: 4, BlockSize: 1024, Protocol: HLRC, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := m.RunToBarrier(context.Background(), acctApp(), 2)
	if err != nil {
		t.Fatal(err)
	}
	base := cp.Digest()
	fields := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if !v.CanSet() && v.CanAddr() {
			// An unexported field of a snapshot type: restore copies it all
			// the same.
			v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
		}
		perturbed := func() {
			fields++
			if cp.Digest() == base {
				t.Errorf("%s: perturbed, digest unchanged", path)
			}
		}
		switch v.Kind() {
		case reflect.Pointer:
			walk(v.Elem(), path)
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Int, reflect.Int64:
			old := v.Int()
			v.SetInt(old + 1)
			perturbed()
			v.SetInt(old)
		case reflect.Uint64:
			old := v.Uint()
			v.SetUint(old + 1)
			perturbed()
			v.SetUint(old)
		}
	}
	for _, target := range []struct {
		name string
		v    any
		// want counts the fields the walk must reach: a field it stops
		// reaching, or a new one, fails here.
		want int
	}{
		// BusyUntil, HoldoffUntil, SvcAt; the seven traffic counters; Count
		// and Sum of both histograms.
		{"EndpointState", &cp.eps[1], 3 + 7 + 2*2},
		// Per node the epoch, the last cut's time and its 23 stats; the
		// second barrier is cut before it releases, so one phase is closed:
		// Index, End, Span and 23 stats.
		{"PhaseState", cp.phases, 4*(2+23) + (3 + 23)},
		{"injector cursor", cp.injCursor, 1},
	} {
		fields = 0
		walk(reflect.ValueOf(target.v).Elem(), target.name)
		if fields != target.want {
			t.Errorf("%s: perturbed %d fields, want %d", target.name, fields, target.want)
		}
	}
	if cp.Digest() != base {
		t.Fatal("digest did not return to its value once every field was restored")
	}
}
