package faults

import (
	"errors"
	"math"
	"testing"

	"dsmsim/internal/sim"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want error // nil = valid
	}{
		{"nil plan", nil, nil},
		{"empty plan", NewPlan(), nil},
		{"good drop", NewPlan(Drop(0.01)), nil},
		{"drop one", NewPlan(Drop(1)), ErrBadProbability},
		{"drop negative", NewPlan(Drop(-0.1)), ErrBadProbability},
		{"good dup", NewPlan(Duplicate(0.5)), nil},
		{"dup one", NewPlan(Duplicate(1)), ErrBadProbability},
		{"good jitter", NewPlan(Jitter(5000)), nil},
		{"negative jitter", NewPlan(Jitter(-1)), ErrBadDuration},
		{"zero rto", NewPlan(RTO(0)), ErrBadDuration},
		{"good partition", NewPlan(Partition(0, 1, 10, 20)), nil},
		{"inverted partition", NewPlan(Partition(0, 1, 20, 10)), ErrBadWindow},
		{"unbounded partition", NewPlan(Partition(0, 1, 10, 0)), ErrBadWindow},
		{"good straggler", NewPlan(Straggler(2, 2.0, 0, 0)), nil},
		{"weak straggler", NewPlan(Straggler(2, 0.5, 0, 0)), ErrBadFactor},
		{"NaN straggler", NewPlan(Straggler(2, math.NaN(), 0, 0)), ErrBadFactor},
		{"infinite straggler", NewPlan(Straggler(2, math.Inf(1), 0, 0)), ErrBadFactor},
		{"NaN drop", NewPlan(Drop(math.NaN())), ErrBadProbability},
		{"inverted straggler", NewPlan(Straggler(2, 2.0, 20, 10)), ErrBadWindow},
		{"good linkdrop", NewPlan(DropLink(0, 3, 0.2)), nil},
		{"linkdrop bad p", NewPlan(DropLink(0, 3, 1.5)), ErrBadProbability},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.want == nil && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestValidateForBounds(t *testing.T) {
	p := NewPlan(Partition(0, 4, 10, 20))
	if err := p.Validate(); err != nil {
		t.Fatalf("size-free validation should pass: %v", err)
	}
	if err := p.ValidateFor(4); !errors.Is(err, ErrBadNode) {
		t.Fatalf("node 4 in a 4-node cluster: got %v, want ErrBadNode", err)
	}
	if err := p.ValidateFor(8); err != nil {
		t.Fatalf("node 4 in an 8-node cluster: %v", err)
	}
	if err := NewPlan(Straggler(-1, 2, 0, 0)).ValidateFor(4); !errors.Is(err, ErrBadNode) {
		t.Fatalf("negative node: got %v, want ErrBadNode", err)
	}
}

func TestCompileDeterminism(t *testing.T) {
	plan := NewPlan(Drop(0.3), Duplicate(0.1), Jitter(1000), Seed(42))
	draw := func() []bool {
		in := plan.Compile(4)
		var out []bool
		for i := 0; i < 100; i++ {
			out = append(out, in.DropDraw(0, 1), in.DupDraw())
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical injectors", i)
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	a := NewPlan(Drop(0.5), Seed(1)).Compile(4)
	b := NewPlan(Drop(0.5), Seed(2)).Compile(4)
	same := true
	for i := 0; i < 64; i++ {
		if a.DropDraw(0, 1) != b.DropDraw(0, 1) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-draw streams")
	}
}

func TestDropRateRoughlyHonored(t *testing.T) {
	in := NewPlan(Drop(0.25), Seed(7)).Compile(4)
	n, dropped := 100000, 0
	for i := 0; i < n; i++ {
		if in.DropDraw(1, 2) {
			dropped++
		}
	}
	got := float64(dropped) / float64(n)
	if got < 0.24 || got > 0.26 {
		t.Fatalf("drop rate %v, want ~0.25", got)
	}
}

func TestLinkDropOverride(t *testing.T) {
	in := NewPlan(Drop(0), DropLink(0, 1, 0.99), Seed(3)).Compile(4)
	if !in.WireActive() {
		t.Fatal("link-drop plan should be wire-active")
	}
	// The overridden link drops nearly always; others never (p = 0).
	hits := 0
	for i := 0; i < 100; i++ {
		if in.DropDraw(0, 1) {
			hits++
		}
		if in.DropDraw(1, 0) {
			t.Fatal("reverse link should never drop at p=0")
		}
	}
	if hits < 90 {
		t.Fatalf("overridden link dropped only %d/100 at p=0.99", hits)
	}
}

func TestPartitionWindow(t *testing.T) {
	in := NewPlan(Partition(1, 3, 100, 200)).Compile(4)
	cases := []struct {
		src, dst int
		at       sim.Time
		cut      bool
	}{
		{1, 3, 50, false},
		{1, 3, 100, true},
		{3, 1, 150, true}, // both directions
		{1, 3, 199, true},
		{1, 3, 200, false}, // half-open
		{0, 3, 150, false}, // other links unaffected
	}
	for _, tc := range cases {
		if got := in.Cut(tc.src, tc.dst, tc.at); got != tc.cut {
			t.Errorf("Cut(%d,%d,%v) = %v, want %v", tc.src, tc.dst, tc.at, got, tc.cut)
		}
	}
}

func TestJitterBounded(t *testing.T) {
	const bound = 5000
	in := NewPlan(Jitter(bound), Seed(9)).Compile(4)
	seenNonzero := false
	for i := 0; i < 1000; i++ {
		j := in.JitterDraw()
		if j < 0 || j > bound {
			t.Fatalf("jitter %v outside [0, %d]", j, bound)
		}
		if j > 0 {
			seenNonzero = true
		}
	}
	if !seenNonzero {
		t.Fatal("1000 jitter draws were all zero")
	}
}

func TestDilation(t *testing.T) {
	in := NewPlan(
		Straggler(2, 3, 100, 200),
		Straggler(2, 2, 150, 0), // open-ended, overlaps the first
	).Compile(4)
	if !in.Straggling() {
		t.Fatal("Straggling() = false with straggler windows")
	}
	cases := []struct {
		node int
		at   sim.Time
		want float64
	}{
		{2, 50, 1},
		{2, 100, 3},
		{2, 150, 6}, // overlapping windows multiply
		{2, 250, 2}, // only the open window remains
		{1, 150, 1}, // other nodes healthy
	}
	for _, tc := range cases {
		if got := in.Dilation(tc.node, tc.at); got != tc.want {
			t.Errorf("Dilation(%d, %v) = %v, want %v", tc.node, tc.at, got, tc.want)
		}
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.WireActive() || in.Straggling() || in.Cut(0, 1, 10) ||
		in.DropDraw(0, 1) || in.DupDraw() {
		t.Fatal("nil injector reported a fault")
	}
	if in.JitterDraw() != 0 || in.Dilation(0, 0) != 1 || in.BaseRTO() != 0 {
		t.Fatal("nil injector returned non-neutral values")
	}
}

func TestInactivePlanNotWireActive(t *testing.T) {
	for _, p := range []*Plan{
		NewPlan(),
		NewPlan(Seed(42)),
		NewPlan(Drop(0)),
		NewPlan(Straggler(1, 2, 0, 0)), // stragglers don't touch the wire
	} {
		if p.Compile(4).WireActive() {
			t.Errorf("plan %+v should not be wire-active", p)
		}
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("drop=0.01, dup=0.005, jitter=5us, seed=42, partition=0-2@1ms:2ms, linkdrop=1-3:0.2, rto=500us")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Compile(4)
	if !in.WireActive() {
		t.Fatal("parsed plan should be wire-active")
	}
	if in.MaxJitter() != 5000 {
		t.Fatalf("jitter = %v, want 5000ns", in.MaxJitter())
	}
	if in.BaseRTO() != 500000 {
		t.Fatalf("rto = %v, want 500000ns", in.BaseRTO())
	}
	if !in.Cut(0, 2, 1500000) || in.Cut(0, 2, 2500000) {
		t.Fatal("partition window wrong")
	}

	if _, err := Parse(""); err != nil {
		t.Fatalf("empty spec: %v", err)
	}

	for _, bad := range []string{
		"drop",            // no value
		"drop=x",          // bad float
		"drop=1.5",        // out of range — Validate runs
		"drop=NaN",        // not a probability at all
		"nonsense=1",      // unknown clause
		"partition=0-1",   // missing window
		"partition=0@1:2", // bad pair
		"linkdrop=0-1",    // missing probability
		"jitter=zzz",      // bad duration
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestParseStragglers covers Parse's straggler clause.
func TestParseStragglers(t *testing.T) {
	// Straggler clauses repeat: a windowed one and an open-ended one.
	p, err := Parse("straggler=3x2.0@1ms:2ms, straggler=1x1.5")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Compile(4)
	if in.WireActive() || !in.Straggling() {
		t.Fatal("a straggler-only plan should straggle without touching the wire")
	}
	if in.Dilation(3, 1500000) != 2.0 {
		t.Fatalf("node 3 dilation at 1.5ms = %v, want 2", in.Dilation(3, 1500000))
	}
	if in.Dilation(3, 2500000) != 1.0 {
		t.Fatal("node 3 window should have closed")
	}
	if in.Dilation(1, 999999999) != 1.5 {
		t.Fatal("node 1 open-ended window should persist")
	}

	for _, bad := range []string{
		"straggler=3",        // no factor
		"straggler=x2",       // no node
		"straggler=ax2",      // bad node
		"straggler=3xz",      // bad factor
		"straggler=3x2@oops", // bad window
		"straggler=3x0.5",    // a speed-up — Validate runs
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestBareNanosecondDurations(t *testing.T) {
	p, err := Parse("jitter=1500")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Compile(2).MaxJitter(); got != 1500 {
		t.Fatalf("bare ns duration = %v, want 1500", got)
	}
}
