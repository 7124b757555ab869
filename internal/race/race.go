//go:build race

// Package race reports whether the race detector is compiled in. Tests
// that count on a sync.Pool handing back what was put into it consult it:
// under the detector a Pool drops a quarter of its Puts on purpose.
package race

// Enabled is true when the binary was built with -race.
const Enabled = true
