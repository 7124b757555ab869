package apps

import (
	"sync"
	"sync/atomic"
)

// refKey names one sequential reference: the application's name, which
// carries the version selector (Barnes's mode, Ocean's and Volrend's
// rowwise), and the numbers its constructor takes. A reference is a pure
// function of exactly these — the initial data every Setup writes is
// derived from them and nothing else — so every instance built with the
// same key verifies against the same slice.
type refKey struct {
	app string
	p   [2]int // constructor parameters in declaration order
}

// refs is the process-wide memo of sequential references. A matrix runs
// each application under every protocol × granularity × fault variant, and
// the reference is the same for all of them: one computation per key,
// single-flight, however many sweep workers ask at once.
//
// Entries are never evicted. The memo is bounded by the distinct
// (application, parameters) a process constructs — twelve per size class
// from the registry — and at Paper size all of them together retain 31.2 MB
// (fft 16.8, lu 8.4, ocean 2 × 2.1; DESIGN.md §6, "What a matrix pays per
// run"), less than a third of one Paper-size barnes master image;
// TestReferenceMemoFootprintAtPaperSize measures it.
//
// The slices are shared between instances and between concurrent sweep
// workers: Verify methods only read them, and TestSharedReferences pins
// that.
var (
	refsMu                   sync.Mutex
	refs                     = map[refKey]*refEntry{}
	refsComputed, refsShared atomic.Int64
)

type refEntry struct {
	once sync.Once
	val  any // []float64 or []int32
}

// sharedRef returns the reference for k, calling compute only if no
// instance with the same key has done so before in this process.
func sharedRef[T any](k refKey, compute func() []T) []T {
	refsMu.Lock()
	e := refs[k]
	if e == nil {
		e = &refEntry{}
		refs[k] = e
	}
	refsMu.Unlock()
	fresh := false
	e.once.Do(func() {
		e.val = compute()
		fresh = true
	})
	if fresh {
		refsComputed.Add(1)
	} else {
		refsShared.Add(1)
	}
	return e.val.([]T)
}

// RefStats reports how many sequential references this process has computed
// and how many Setup calls were served one computed earlier.
func RefStats() (computed, shared int64) {
	return refsComputed.Load(), refsShared.Load()
}
