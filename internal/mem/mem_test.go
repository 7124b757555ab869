package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dsmsim/internal/digest"
)

func TestNewSpaceValidation(t *testing.T) {
	for _, c := range []struct{ size, bs int }{
		{4096, 0}, {4096, 3}, {4096, 96}, {100, 64}, {0, 64}, {-64, 64},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSpace(%d,%d) did not panic", c.size, c.bs)
				}
			}()
			NewSpace(c.size, c.bs)
		}()
	}
}

func TestSpaceBlockMath(t *testing.T) {
	s := NewSpace(4096, 256)
	if s.NumBlocks() != 16 {
		t.Fatalf("NumBlocks = %d", s.NumBlocks())
	}
	f, l := s.BlocksIn(250, 10) // spans blocks 0 and 1
	if f != 0 || l != 1 {
		t.Fatalf("BlocksIn(250,10) = %d,%d", f, l)
	}
	f, l = s.BlocksIn(256, 256)
	if f != 1 || l != 1 {
		t.Fatalf("BlocksIn(256,256) = %d,%d", f, l)
	}
}

func TestAccessAllows(t *testing.T) {
	if NoAccess.Allows(false) || NoAccess.Allows(true) {
		t.Error("NoAccess should fault on everything")
	}
	if !ReadOnly.Allows(false) || ReadOnly.Allows(true) {
		t.Error("ReadOnly should allow reads only")
	}
	if !ReadWrite.Allows(false) || !ReadWrite.Allows(true) {
		t.Error("ReadWrite should allow everything")
	}
}

func TestTags(t *testing.T) {
	s := NewSpace(1024, 64)
	for b := 0; b < s.NumBlocks(); b++ {
		if s.Tag(b) != NoAccess {
			t.Fatal("fresh space must start with no access")
		}
	}
	s.SetTag(5, ReadWrite)
	if s.Tag(5) != ReadWrite || s.Tag(4) != NoAccess {
		t.Fatal("SetTag leaked")
	}
}

func TestBlockDataAliasesBacking(t *testing.T) {
	s := NewSpace(1024, 64)
	bd := s.BlockData(2)
	if len(bd) != 64 {
		t.Fatalf("len = %d", len(bd))
	}
	bd[0] = 0xAB
	if s.Bytes(128, 1)[0] != 0xAB {
		t.Fatal("BlockData does not alias backing store")
	}
	if &s.Bytes(128, 8)[0] != &bd[0] {
		t.Fatal("Bytes does not alias backing store")
	}
}

func TestAllocator(t *testing.T) {
	a := NewAllocator(1024)
	p0 := a.Alloc(10, 0)
	p1 := a.Alloc(10, 64)
	p2 := a.Alloc(4, 8)
	if p0 != 0 {
		t.Fatalf("p0 = %d", p0)
	}
	if p1 != 64 {
		t.Fatalf("p1 = %d, want 64-aligned after 10 bytes", p1)
	}
	if p2 != 80 {
		t.Fatalf("p2 = %d, want 80", p2)
	}
	if a.Used() != 84 {
		t.Fatalf("Used=%d", a.Used())
	}
}

func TestAllocatorExhaustionPanics(t *testing.T) {
	a := NewAllocator(64)
	a.Alloc(60, 0)
	defer func() {
		if recover() == nil {
			t.Error("exhaustion did not panic")
		}
	}()
	a.Alloc(8, 0)
}

func TestAllocatorBadAlignPanics(t *testing.T) {
	a := NewAllocator(64)
	defer func() {
		if recover() == nil {
			t.Error("bad alignment did not panic")
		}
	}()
	a.Alloc(8, 3)
}

func TestMakeDiffBasics(t *testing.T) {
	twin := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	cur := []byte{1, 9, 9, 4, 5, 6, 7, 10}
	d := MakeDiff(twin, cur)
	if len(d.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(d.Runs))
	}
	if d.Runs[0].Off != 1 || !bytes.Equal(d.Runs[0].Data, []byte{9, 9}) {
		t.Fatalf("run0 = %+v", d.Runs[0])
	}
	if d.Runs[1].Off != 7 || !bytes.Equal(d.Runs[1].Data, []byte{10}) {
		t.Fatalf("run1 = %+v", d.Runs[1])
	}
	if d.PayloadBytes() != 3 {
		t.Fatalf("payload = %d", d.PayloadBytes())
	}
	if d.WireBytes(4) != 3+8 {
		t.Fatalf("wire = %d", d.WireBytes(4))
	}
}

func TestMakeDiffEmpty(t *testing.T) {
	b := []byte{1, 2, 3}
	d := MakeDiff(b, []byte{1, 2, 3})
	if !d.Empty() || d.PayloadBytes() != 0 || d.WireBytes(4) != 0 {
		t.Fatal("identical blocks must produce an empty diff")
	}
}

// TestDiffRoundTrip is the core multiple-writer invariant: applying the diff
// of (twin → cur) onto any base that agrees with twin on the modified bytes'
// complement reconstructs cur exactly when the base is the twin itself.
func TestDiffRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(512)
		twin := make([]byte, n)
		rng.Read(twin)
		cur := make([]byte, n)
		copy(cur, twin)
		for k := rng.Intn(n); k > 0; k-- {
			cur[rng.Intn(n)] = byte(rng.Int())
		}
		d := clone(MakeDiff(twin, cur))
		dst := make([]byte, n)
		copy(dst, twin)
		d.Apply(dst)
		return bytes.Equal(dst, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDiffDisjointWritersMerge checks the HLRC property that diffs from two
// concurrent writers touching disjoint bytes can be applied to the home copy
// in either order with the same result.
func TestDiffDisjointWritersMerge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(256)
		base := make([]byte, n)
		rng.Read(base)
		curA := append([]byte(nil), base...)
		curB := append([]byte(nil), base...)
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				curA[i] = base[i] + 1 + byte(rng.Intn(200))
			case 1:
				curB[i] = base[i] + 1 + byte(rng.Intn(200))
			}
		}
		dA := clone(MakeDiff(base, curA))
		dB := clone(MakeDiff(base, curB))
		ab := append([]byte(nil), base...)
		dA.Apply(ab)
		dB.Apply(ab)
		ba := append([]byte(nil), base...)
		dB.Apply(ba)
		dA.Apply(ba)
		if !bytes.Equal(ab, ba) {
			return false
		}
		// And the merge must contain both writers' updates.
		for i := 0; i < n; i++ {
			want := base[i]
			if curA[i] != base[i] {
				want = curA[i]
			}
			if curB[i] != base[i] {
				want = curB[i]
			}
			if ab[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMakeDiffLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	MakeDiff([]byte{1}, []byte{1, 2})
}

// clone is a diff that no longer aliases the block MakeDiff read.
func clone(d Diff) (c Diff) {
	digest.Copy(&c, &d)
	return c
}

func TestDiffCloneIndependent(t *testing.T) {
	twin := []byte{0, 0, 0, 0}
	cur := []byte{0, 7, 7, 0}
	cl := clone(MakeDiff(twin, cur))
	cur[1] = 99 // mutate the block the original diff aliases
	if cl.Runs[0].Data[0] != 7 {
		t.Fatal("a copy still aliases the source block")
	}
}

func TestAccessString(t *testing.T) {
	if NoAccess.String() != "none" || ReadOnly.String() != "ro" || ReadWrite.String() != "rw" {
		t.Fatal("Access.String wrong")
	}
	if Access(9).String() == "" {
		t.Fatal("unknown access must still format")
	}
}
