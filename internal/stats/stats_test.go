package stats

import (
	"reflect"
	"testing"
)

// setLeaves sets every int64 leaf reachable from v (through nested structs
// and arrays) to x, and returns how many leaves it set.
func setLeaves(t *testing.T, v reflect.Value, x int64) int {
	t.Helper()
	switch v.Kind() {
	case reflect.Int64:
		v.SetInt(x)
		return 1
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += setLeaves(t, v.Field(i), x)
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += setLeaves(t, v.Index(i), x)
		}
		return n
	default:
		t.Fatalf("unhandled field kind %v in stats.Node", v.Kind())
		return 0
	}
}

// checkLeaves verifies every int64 leaf reachable from v equals want.
func checkLeaves(t *testing.T, v reflect.Value, want int64, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int64:
		if got := v.Int(); got != want {
			t.Errorf("%s = %d after two Adds, want %d (Add out of sync with struct)", path, got, want)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			checkLeaves(t, v.Field(i), want, path+"."+v.Type().Field(i).Name)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			checkLeaves(t, v.Index(i), want, path)
		}
	default:
		t.Fatalf("unhandled field kind %v at %s", v.Kind(), path)
	}
}

// TestAddCoversEveryField uses reflection to guarantee Add stays in sync
// with the struct: setting every int64 leaf (counters, time components,
// and every histogram's Count/Sum/Buckets) to 1 and adding twice must
// yield 2 everywhere. All leaves are additive by design — histograms carry
// no min/max fields precisely so this invariant holds.
func TestAddCoversEveryField(t *testing.T) {
	var a, b Node
	if n := setLeaves(t, reflect.ValueOf(&b).Elem(), 1); n == 0 {
		t.Fatal("no int64 leaves found in stats.Node")
	}
	a.Add(&b)
	a.Add(&b)
	checkLeaves(t, reflect.ValueOf(&a).Elem(), 2, "Node")
}

func TestReset(t *testing.T) {
	n := Node{ReadFaults: 5, Compute: 100}
	n.LockWait.Observe(40)
	n.Reset()
	if n != (Node{}) {
		t.Fatalf("Reset left state: %+v", n)
	}
}

// TestSubAndAddToCoverEveryField: Sub and AddTo must touch every Snapshot
// field (a delta would silently drop a counter otherwise). With every leaf
// of s at 1, of cur at 5 and of prev at 2, adding cur to s and subtracting
// prev must leave 4 everywhere.
func TestSubAndAddToCoverEveryField(t *testing.T) {
	var s, cur, prev Snapshot
	if n := setLeaves(t, reflect.ValueOf(&s).Elem(), 1); n == 0 {
		t.Fatal("no int64 leaves found in stats.Snapshot")
	}
	setLeaves(t, reflect.ValueOf(&cur).Elem(), 5)
	setLeaves(t, reflect.ValueOf(&prev).Elem(), 2)
	cur.AddTo(&s)
	s.Sub(&prev)
	checkLeaves(t, reflect.ValueOf(&s).Elem(), 4, "Snapshot")
}
