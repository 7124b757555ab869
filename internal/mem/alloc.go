package mem

import "fmt"

// Allocator is a bump allocator over the shared address space. Shared data
// structures are laid out once, before the parallel phase, exactly like the
// SPLASH-2 programs' shared-heap mallocs. There is no free: runs are
// bounded and layouts are static, matching the applications in the paper.
type Allocator struct {
	next  int
	size  int
	marks []Region // Label marks; Size is materialized by Regions
}

// Region is a named span of the shared heap: everything allocated
// between one Label call and the next. The sharing-pattern profiler
// aggregates its per-block ledger over these regions, so reports name
// the application's data structures instead of raw addresses.
type Region struct {
	Name  string
	Start int
	Size  int
}

// NewAllocator returns an allocator over a heap of the given size.
func NewAllocator(size int) *Allocator {
	return &Allocator{size: size}
}

// Alloc returns the address of a fresh n-byte region aligned to align bytes
// (align must be a power of two; 0 or 1 means byte alignment). It panics if
// the heap is exhausted — the applications size their heaps up front.
func (a *Allocator) Alloc(n, align int) int {
	if n < 0 {
		panic(fmt.Sprintf("mem: Alloc(%d)", n))
	}
	if align > 1 {
		if align&(align-1) != 0 {
			panic(fmt.Sprintf("mem: alignment %d is not a power of two", align))
		}
		a.next = (a.next + align - 1) &^ (align - 1)
	}
	addr := a.next
	a.next += n
	if a.next > a.size {
		panic(fmt.Sprintf("mem: shared heap exhausted: want %d at %d, heap %d", n, addr, a.size))
	}
	return addr
}

// Label starts a named region at the current allocation point: every
// byte allocated until the next Label call belongs to it. Labels are
// optional — unlabeled spans fall into the profiler's "(unlabeled)"
// bucket — and cost nothing when no profiler consumes them.
func (a *Allocator) Label(name string) {
	if n := len(a.marks); n > 0 && a.marks[n-1].Start == a.next {
		// Nothing was allocated under the previous label: replace it.
		a.marks[n-1].Name = name
		return
	}
	a.marks = append(a.marks, Region{Name: name, Start: a.next})
}

// Regions returns the named regions in address order, each extending to
// the next label (the last to the current allocation point). Zero-size
// regions are omitted.
func (a *Allocator) Regions() []Region {
	var out []Region
	for i, m := range a.marks {
		end := a.next
		if i+1 < len(a.marks) {
			end = a.marks[i+1].Start
		}
		if end > m.Start {
			m.Size = end - m.Start
			out = append(out, m)
		}
	}
	return out
}

// Used returns the number of bytes allocated so far (including padding).
func (a *Allocator) Used() int { return a.next }
