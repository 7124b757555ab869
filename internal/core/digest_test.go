package core

import (
	"context"
	"reflect"
	"testing"
)

// TestDigestCoversEndpointState: Restore copies every field of a captured
// network.EndpointState back, so the fork oracle must see every one of them.
// Each integer field — the timing memory, every traffic counter and both
// latency histograms' Count and Sum — is perturbed alone, and the digest has
// to move each time.
func TestDigestCoversEndpointState(t *testing.T) {
	m, err := NewMachine(Config{Nodes: 4, BlockSize: 1024, Protocol: HLRC})
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
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Int64:
			fields++
			old := v.Int()
			v.SetInt(old + 1)
			if cp.Digest() == base {
				t.Errorf("EndpointState%s: perturbed, digest unchanged", path)
			}
			v.SetInt(old)
		}
	}
	walk(reflect.ValueOf(&cp.eps[1]).Elem(), "")
	// BusyUntil, HoldoffUntil, SvcAt; the seven traffic counters; Count and
	// Sum of both histograms. A field the walk stops reaching fails here.
	if want := 3 + 7 + 2*2; fields != want {
		t.Fatalf("perturbed %d fields, want %d", fields, want)
	}
	if cp.Digest() != base {
		t.Fatal("digest did not return to its value once every field was restored")
	}
}
