// Package apps implements the paper's twelve applications (§4): the eight
// SPLASH-2 benchmarks — LU, FFT, Ocean, Water-Nsquared, Volrend,
// Water-Spatial, Raytrace, Barnes — plus the restructured variants of
// Ocean (Rowwise), Volrend (Rowwise) and Barnes (Partree, Spatial). Each
// application performs real computation against the DSM API, reproduces the
// original's data layout, partitioning and synchronization structure, and
// verifies its numeric result against a sequential reference.
package apps

import (
	"fmt"
	"math"

	"dsmsim/internal/core"
)

// SizeClass selects problem scale.
type SizeClass int

const (
	// Small sizes keep unit tests fast.
	Small SizeClass = iota
	// Paper sizes match Table 1 of the paper.
	Paper
)

// Entry describes one registered application.
type Entry struct {
	// Name is the application name used throughout the paper
	// ("lu", "fft", "ocean-original", ...).
	Name string
	// BaseName groups versions of the same benchmark ("ocean").
	BaseName string
	// New constructs the app at the given size.
	New func(size SizeClass) core.App
}

// registry holds all twelve applications in the paper's order.
var registry []Entry

func register(name, base string, f func(size SizeClass) core.App) {
	registry = append(registry, Entry{Name: name, BaseName: base, New: f})
}

// All returns every registered application, in the paper's order.
func All() []Entry { return append([]Entry(nil), registry...) }

// Names returns all application names.
func Names() []string {
	var out []string
	for _, e := range registry {
		out = append(out, e.Name)
	}
	return out
}

// Get returns the entry for name.
func Get(name string) (Entry, error) {
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
}

// Originals returns the names of the eight original implementations used in
// Table 16's statistics (§5.5): the version of each benchmark ported
// directly from hardware-coherent shared memory.
func Originals() []string {
	return []string{
		"lu", "fft", "ocean-original", "water-nsquared",
		"volrend-original", "water-spatial", "raytrace", "barnes-original",
	}
}

// partition returns the contiguous range [lo, hi) of n items owned by
// processor i of p.
func partition(n, p, i int) (lo, hi int) {
	base, rem := n/p, n%p
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// checkClose compares two float64 slices with relative tolerance (parallel
// runs may reorder floating-point accumulation).
func checkClose(name string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d vs %d", name, len(got), len(want))
	}
	worst, worstIdx := 0.0, -1
	for i := range got {
		d := math.Abs(got[i] - want[i])
		s := math.Max(math.Abs(want[i]), 1.0)
		if d/s > worst {
			worst, worstIdx = d/s, i
		}
	}
	if worst > tol {
		return fmt.Errorf("%s: worst relative error %.3g at %d (got %v, want %v)",
			name, worst, worstIdx, got[worstIdx], want[worstIdx])
	}
	return nil
}

// hashNoise is a deterministic pseudo-random double in [0,1) derived from a
// seed and index; used to initialize physical systems identically in the
// parallel app and its sequential reference.
func hashNoise(seed, i int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
