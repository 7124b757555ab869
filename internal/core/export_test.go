package core

import (
	"dsmsim/internal/mem"
	"dsmsim/internal/timing"
)

// SetReleaseHook installs fn as the hook every run calls on each space just
// before recycling it, and returns the function that removes it again.
func SetReleaseHook(fn func(*mem.Space)) (restore func()) {
	releaseHook = fn
	return func() { releaseHook = nil }
}

// SharedModel returns the timing model every run reads.
func SharedModel() *timing.Model { return model }
