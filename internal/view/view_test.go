package view

import (
	"testing"
	"unsafe"
)

func TestF64sRoundTrip(t *testing.T) {
	b := make([]byte, 32)
	f := F64s(b)
	if len(f) != 4 {
		t.Fatalf("len = %d", len(f))
	}
	f[2] = 3.25
	if F64s(b)[2] != 3.25 {
		t.Fatal("view does not alias backing bytes")
	}
}

func TestI32sRoundTrip(t *testing.T) {
	b := make([]byte, 16)
	v := I32s(b)
	v[3] = -7
	if I32s(b)[3] != -7 {
		t.Fatal("view does not alias")
	}
	if len(I64s(b)) != 2 {
		t.Fatal("I64s wrong length")
	}
}

func TestEmptyViews(t *testing.T) {
	if F64s(nil) != nil || I32s([]byte{}) != nil {
		t.Fatal("empty views must be nil")
	}
}

func TestBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd length")
		}
	}()
	F64s(make([]byte, 12))
}

func TestMisalignedPanics(t *testing.T) {
	b := make([]byte, 64)
	// Find an offset that is genuinely misaligned for 8-byte views
	// (byte-slice base alignment is not guaranteed, so probe).
	off := -1
	for o := 0; o < 8; o++ {
		if uintptr(unsafe.Pointer(&b[o]))%8 != 0 {
			off = o
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on misaligned view")
		}
	}()
	F64s(b[off : off+16])
}
