// Package view reinterprets byte slices of the shared address space as
// typed numeric slices without copying. The shared-heap allocator hands out
// aligned regions, so these views are safe on the platforms we target; the
// constructors verify alignment and length and panic on misuse, which keeps
// the application kernels running at native speed while every coherence
// check stays at block granularity in the access layer.
package view

import (
	"fmt"
	"unsafe"
)

func check(b []byte, elem int, kind string) {
	if len(b)%elem != 0 {
		panic(fmt.Sprintf("view: %s over %d bytes (not a multiple of %d)", kind, len(b), elem))
	}
	if len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))%uintptr(elem) != 0 {
		panic(fmt.Sprintf("view: misaligned %s view", kind))
	}
}

// F64s views b as a []float64. len(b) must be a multiple of 8 and the data
// 8-byte aligned.
func F64s(b []byte) []float64 {
	check(b, 8, "float64")
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// I64s views b as a []int64.
func I64s(b []byte) []int64 {
	check(b, 8, "int64")
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// I32s views b as a []int32.
func I32s(b []byte) []int32 {
	check(b, 4, "int32")
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}
