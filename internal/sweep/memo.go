package sweep

import (
	"sync"

	"dsmsim/internal/core"
)

// Memo is a concurrency-safe, single-flight cache: when several workers
// want the same key at once, exactly one computes it and the rest wait for
// that computation and take its outcome. A sweep keeps one for the length
// of its Run: the warmup prefixes forked grid points share, keyed by
// (prefix point, cut epoch).
//
// Every outcome stays, an error included: within one Run a failed prefix
// means the sweep has failed, so a waiter takes the leader's error rather
// than computing again. An outcome that is deterministic but no result — a
// refused prefix cut — is returned as a value, not an error, because the
// group's other points read it (see warmup). The zero value is an empty
// memo.
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

// Do returns the memoized outcome for k, computing it with compute if
// needed. fresh reports whether this call performed the computation (as
// opposed to hitting the cache or joining another caller's in-flight
// computation).
func (m *Memo[K, V]) Do(k K, compute func() (V, error)) (v V, err error, fresh bool) {
	m.mu.Lock()
	if m.m == nil {
		m.m = map[K]*call[V]{}
	}
	if c, ok := m.m[k]; ok {
		m.mu.Unlock()
		<-c.done
		return c.v, c.err, false
	}
	c := &call[V]{done: make(chan struct{})}
	m.m[k] = c
	m.mu.Unlock()

	c.v, c.err = compute()
	close(c.done)
	return c.v, c.err, true
}

// Len returns the number of cached and in-flight entries.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// each calls fn on every value computed so far, in no particular order,
// skipping failed entries.
func (m *Memo[K, V]) each(fn func(V)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.m {
		select {
		case <-c.done:
			if c.err == nil {
				fn(c.v)
			}
		default:
		}
	}
}
