package core

import (
	"dsmsim/internal/mem"
	"dsmsim/internal/view"
)

// Heap is the master image of the shared address space. Applications lay
// out and initialize their shared data here during Setup (the untimed
// sequential pre-parallel phase) and read final results here in Verify.
//
// touched marks every master page Bytes has handed out — the only route to
// the image's bytes — so a page not marked is still all-zero: seeding
// copies marked pages only, and the final write-back merges the spaces'
// dirty maps into it to find the pages worth collecting.
type Heap struct {
	alloc   *mem.Allocator
	master  []byte
	touched mem.PageMap
	slab    mem.Slab // what master and touched are; empty once released
}

// newHeap returns an empty heap of size bytes over an all-zero image.
func newHeap(size int) *Heap {
	slab := mem.NewImage(size)
	return &Heap{alloc: mem.NewAllocator(size), master: slab.Data, touched: slab.Pages, slab: slab}
}

// release gives the image back to the pool, which clears the pages touched
// marks. The heap is empty afterwards: a stale use indexes a nil slice
// instead of reading another run's image.
func (h *Heap) release() {
	h.slab.Release()
	h.master, h.touched = nil, nil
}

// ReleaseImage gives res's master image back for the next run to draw and
// clears res.Heap. It is for a caller that owns the result's lifetime and
// is done with the image — the sweep engine, once Verify has read it — and
// must not be called while anything still holds a view into the heap.
func ReleaseImage(res *Result) {
	if h := res.Heap; h != nil {
		res.Heap = nil
		h.release()
	}
}

// VerifyAndRelease checks res's final image with app.Verify and then gives
// the image back (ReleaseImage), on a pass and on a fail alike: a verified
// result keeps nothing it drew from a pool. It is the tail of every
// verified run — RunVerified, and through it a verified dsmsim.Start, and
// each run of a verifying sweep.
func VerifyAndRelease(app App, res *Result) error {
	defer ReleaseImage(res)
	return app.Verify(res.Heap)
}

// Alloc reserves n bytes aligned to align (power of two) and returns the
// shared address.
func (h *Heap) Alloc(n, align int) int { return h.alloc.Alloc(n, align) }

// Label names the heap region starting at the current allocation point
// (until the next Label call). The sharing-pattern profiler reports
// per-region statistics under these names; unlabeled allocations land in
// an "(unlabeled)" bucket. Free when no profiler is attached.
func (h *Heap) Label(name string) { h.alloc.Label(name) }

// Regions returns the named heap regions laid out so far.
func (h *Heap) Regions() []mem.Region { return h.alloc.Regions() }

// AllocF64s reserves count float64s (8-byte aligned).
func (h *Heap) AllocF64s(count int) int { return h.alloc.Alloc(count*8, 8) }

// AllocI64s reserves count int64s (8-byte aligned).
func (h *Heap) AllocI64s(count int) int { return h.alloc.Alloc(count*8, 8) }

// AllocPage reserves n bytes aligned to a 4096-byte page, the alignment the
// SPLASH-2 programs use for per-processor partitions.
func (h *Heap) AllocPage(n int) int { return h.alloc.Alloc(n, 4096) }

// Used returns the number of heap bytes allocated so far.
func (h *Heap) Used() int { return h.alloc.Used() }

// Bytes returns the master bytes [addr, addr+n).
func (h *Heap) Bytes(addr, n int) []byte {
	h.touched.Mark(addr, n)
	return h.master[addr : addr+n : addr+n]
}

// F64s views count float64s at addr in the master image.
func (h *Heap) F64s(addr, count int) []float64 { return view.F64s(h.Bytes(addr, count*8)) }

// I32s views count int32s at addr in the master image.
func (h *Heap) I32s(addr, count int) []int32 { return view.I32s(h.Bytes(addr, count*4)) }

// I64s views count int64s at addr in the master image.
func (h *Heap) I64s(addr, count int) []int64 { return view.I64s(h.Bytes(addr, count*8)) }
