package sweep

import (
	"sync"

	"dsmsim/internal/core"
)

// Memo is a concurrency-safe, single-flight cache: when several workers
// want the same key at once, exactly one computes it
// and the rest wait for that computation. An Engine keeps two for its
// lifetime — run results keyed by Key, and shared warmup prefixes keyed by
// (prefix point, cut epoch) — so a later sweep over the same points reuses
// both.
//
// Only successes are retained, and results without their master images
// (Engine.checked gives each back once verified): what the memo holds is
// statistics. A failed computation is forgotten, and waiters that had joined
// it retry with their own compute function — a leader cancelled by its
// sweep's context cannot poison a follower from a different sweep whose
// context is still live. An outcome that is deterministic but no result —
// a refused prefix cut — is therefore returned as a value, not an error,
// when it must be kept (see warmup). The zero value is an empty memo.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]
}

// call is one computation; done is closed once v and err are set.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// NewMemo returns an empty memo of run results.
func NewMemo() *Memo[Key, *core.Result] { return &Memo[Key, *core.Result]{} }

// Do returns the memoized value for k, computing it with compute if needed.
// fresh reports whether this call performed the computation (as opposed to
// hitting the cache or joining another caller's in-flight computation) —
// emission of progress/CSV records keys off it so each run is reported
// exactly once.
func (m *Memo[K, V]) Do(k K, compute func() (V, error)) (v V, err error, fresh bool) {
	for {
		m.mu.Lock()
		if m.m == nil {
			m.m = map[K]*call[V]{}
		}
		if c, ok := m.m[k]; ok {
			m.mu.Unlock()
			<-c.done
			if c.err == nil {
				return c.v, nil, false
			}
			// The leader failed (typically: its sweep was cancelled) and
			// forgot its entry. Retry with our own compute — if this
			// caller's context is also dead, its compute fails fast.
			continue
		}
		c := &call[V]{done: make(chan struct{})}
		m.m[k] = c
		m.mu.Unlock()

		c.v, c.err = compute()
		if c.err != nil {
			// Forget failures so a cancelled or aborted run can be retried.
			m.mu.Lock()
			delete(m.m, k)
			m.mu.Unlock()
		}
		close(c.done)
		return c.v, c.err, true
	}
}

// Len returns the number of cached and in-flight entries.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// each calls fn on every value computed so far, in no particular order.
// A failed entry leaves the map before its done channel closes, so every
// finished entry still present succeeded.
func (m *Memo[K, V]) each(fn func(V)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.m {
		select {
		case <-c.done:
			fn(c.v)
		default:
		}
	}
}
