package sweep

import (
	"sync"

	"dsmsim/internal/core"
)

// Memo is a concurrency-safe, single-flight cache of simulation results
// keyed by run configuration. It replaces the old serial Runner.cache: when
// several workers (or several experiments) want the same configuration at
// once, exactly one computes it and the rest wait for that computation.
//
// Only successful results are retained, and without their master images
// (Engine.checked gives each back once verified): what the memo holds for
// the engine's lifetime is statistics. A failed computation is forgotten,
// and waiters that had joined it retry with their own compute function — a
// leader cancelled by its sweep's context cannot poison a follower from a
// different sweep whose context is still live.
type Memo struct {
	mu sync.Mutex
	m  map[Key]*memoEntry
}

type memoEntry struct {
	done chan struct{} // closed when res/err are set
	res  *core.Result
	err  error
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{m: map[Key]*memoEntry{}} }

// Do returns the memoized result for k, computing it with compute if
// needed. fresh reports whether this call performed the computation (as
// opposed to hitting the cache or joining another caller's in-flight
// computation) — emission of progress/CSV records keys off it so each run
// is reported exactly once.
func (m *Memo) Do(k Key, compute func() (*core.Result, error)) (res *core.Result, err error, fresh bool) {
	for {
		m.mu.Lock()
		if e, ok := m.m[k]; ok {
			m.mu.Unlock()
			<-e.done
			if e.err == nil {
				return e.res, nil, false
			}
			// The leader failed (typically: its sweep was cancelled) and
			// forgot its entry. Retry with our own compute — if this
			// caller's context is also dead, its compute fails fast.
			continue
		}
		e := &memoEntry{done: make(chan struct{})}
		m.m[k] = e
		m.mu.Unlock()

		e.res, e.err = compute()
		if e.err != nil {
			// Forget failures so a cancelled or aborted run can be retried.
			m.mu.Lock()
			delete(m.m, k)
			m.mu.Unlock()
		}
		close(e.done)
		return e.res, e.err, true
	}
}

// Len returns the number of cached results.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
