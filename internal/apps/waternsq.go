package apps

import (
	"math"
	"sort"

	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

func init() {
	register("water-nsquared", "water-nsquared", func(size SizeClass) core.App {
		if size == Paper {
			return NewWaterNsq(4096, 3)
		}
		return NewWaterNsq(64, 2)
	})
}

// molF64s is the number of float64 fields per molecule: position, velocity
// and force vectors. 9 doubles = 72 bytes, so molecules straddle block
// boundaries — the multiple-writer pattern of §5.2.
const molF64s = 9

// WaterNsq is the SPLASH-2 Water-Nsquared application: n molecules in a
// contiguous array, partitioned into contiguous n/p pieces, advanced with
// an O(n²/2) pairwise force method with a cutoff. In the force phase each
// processor computes interactions between its molecules and the following
// n/2 molecules (cyclically) and accumulates the partial forces into other
// processors' partitions under per-partition locks — the migratory,
// multiple-writer, coarse-grain access pattern of Table 7.
type WaterNsq struct {
	n, steps int
	mols     int // shared base address

	cutoff2 float64
	dt      float64

	ref []float64 // sequential reference positions (3 per molecule)

	perPair sim.Time // per-pair-interaction cost (potential evaluation)
}

// NewWaterNsq creates the system with n molecules advanced steps times.
func NewWaterNsq(n, steps int) *WaterNsq {
	return &WaterNsq{
		n: n, steps: steps,
		cutoff2: 0.25, dt: 1e-4,
		// ≈23 µs per pair interaction reproduces Table 1's 575 s at 4096
		// molecules × 3 steps on the 66 MHz testbed.
		perPair: 23 * sim.Microsecond,
	}
}

// Info implements core.App.
func (a *WaterNsq) Info() core.AppInfo {
	return core.AppInfo{
		Name:         "water-nsquared",
		HeapBytes:    a.n*molF64s*8 + 65536,
		PollDilation: 0.08,
	}
}

// Setup implements core.App: molecules on a perturbed lattice.
func (a *WaterNsq) Setup(h *core.Heap) {
	h.Label("molecules")
	a.mols = h.AllocPage(a.n * molF64s * 8)
	m := h.F64s(a.mols, a.n*molF64s)
	side := int(math.Cbrt(float64(a.n))) + 1
	for i := 0; i < a.n; i++ {
		x, y, z := i%side, (i/side)%side, i/(side*side)
		m[i*molF64s+0] = float64(x) + 0.3*hashNoise(11, i)
		m[i*molF64s+1] = float64(y) + 0.3*hashNoise(12, i)
		m[i*molF64s+2] = float64(z) + 0.3*hashNoise(13, i)
		// Small initial velocities; forces zero.
		m[i*molF64s+3] = 0.01 * (hashNoise(14, i) - 0.5)
		m[i*molF64s+4] = 0.01 * (hashNoise(15, i) - 0.5)
		m[i*molF64s+5] = 0.01 * (hashNoise(16, i) - 0.5)
	}
	a.ref = sharedRef(refKey{"water-nsquared", [2]int{a.n, a.steps}}, func() []float64 { return a.sequential(m) })
}

// pairForce computes the force contribution of molecule j on i given their
// positions; fx/fy/fz accumulate i's force (j gets the negation).
func (a *WaterNsq) pairForce(pi, pj []float64) (fx, fy, fz float64, interacted bool) {
	dx, dy, dz := pi[0]-pj[0], pi[1]-pj[1], pi[2]-pj[2]
	r2 := dx*dx + dy*dy + dz*dz
	if r2 >= a.cutoff2 || r2 == 0 {
		return 0, 0, 0, false
	}
	// A soft Lennard-Jones-like potential (the paper's physics is the
	// water potential; only the access pattern matters here).
	inv := 1 / (r2 + 0.01)
	f := inv*inv - 0.5*inv
	return f * dx, f * dy, f * dz, true
}

// Run implements core.App.
func (a *WaterNsq) Run(c *core.Ctx) {
	n, p, me := a.n, c.NP(), c.ID()
	lo, hi := partition(n, p, me)
	half := n / 2

	for step := 0; step < a.steps; step++ {
		// Phase 1: predict positions of my molecules (local writes).
		mine := c.F64sW(a.mols+lo*molF64s*8, (hi-lo)*molF64s)
		for i := 0; i < hi-lo; i++ {
			m := mine[i*molF64s:]
			m[0] += a.dt * m[3]
			m[1] += a.dt * m[4]
			m[2] += a.dt * m[5]
			m[6], m[7], m[8] = 0, 0, 0
		}
		c.Compute(sim.Time(hi-lo) * 2 * sim.Microsecond)
		c.Barrier()

		// Phase 2: pairwise forces. Each processor handles pairs (i, j)
		// with i in its partition and j in the following n/2 molecules,
		// accumulating into a private buffer, then merges the partial
		// forces into each partition under that partition's lock.
		partial := make(map[int][3]float64)
		pairs := 0
		for i := lo; i < hi; i++ {
			pi := c.F64sR(a.mols+i*molF64s*8, 6)
			pix, piy, piz := pi[0], pi[1], pi[2]
			for d := 1; d <= half; d++ {
				j := (i + d) % n
				pj := c.F64sR(a.mols+j*molF64s*8, 3)
				fx, fy, fz, ok := a.pairForce([]float64{pix, piy, piz}, pj)
				pairs++
				if !ok {
					continue
				}
				fi := partial[i]
				partial[i] = [3]float64{fi[0] + fx, fi[1] + fy, fi[2] + fz}
				fj := partial[j]
				partial[j] = [3]float64{fj[0] - fx, fj[1] - fy, fj[2] - fz}
			}
		}
		c.Compute(sim.Time(pairs) * a.perPair)
		// Merge partials partition by partition, with the owner's lock —
		// the migratory update phase the paper highlights.
		for q := 0; q < p; q++ {
			qlo, qhi := partition(n, p, q)
			// Deterministic order over the buffered updates.
			var touched []int
			for i := range partial {
				if i >= qlo && i < qhi {
					touched = append(touched, i)
				}
			}
			if len(touched) == 0 {
				continue
			}
			sort.Ints(touched)
			c.Lock(q)
			for _, i := range touched {
				f := c.F64sW(a.mols+(i*molF64s+6)*8, 3)
				d := partial[i]
				f[0] += d[0]
				f[1] += d[1]
				f[2] += d[2]
			}
			c.Unlock(q)
		}
		c.Barrier()

		// Phase 3: integrate my molecules from the accumulated forces.
		mine = c.F64sW(a.mols+lo*molF64s*8, (hi-lo)*molF64s)
		for i := 0; i < hi-lo; i++ {
			m := mine[i*molF64s:]
			m[3] += a.dt * m[6]
			m[4] += a.dt * m[7]
			m[5] += a.dt * m[8]
			m[0] += a.dt * m[3]
			m[1] += a.dt * m[4]
			m[2] += a.dt * m[5]
		}
		c.Compute(sim.Time(hi-lo) * 3 * sim.Microsecond)
		c.Barrier()

		// Phase 4: global energy-style reduction under a lock (the
		// paper's Water has per-step global sums), then a step barrier.
		sum := 0.0
		for i := 0; i < hi-lo; i++ {
			m := mine[i*molF64s:]
			sum += m[3]*m[3] + m[4]*m[4] + m[5]*m[5]
		}
		_ = sum
		c.Compute(sim.Time(hi-lo) * 200)
		c.Barrier()
	}
}

// sequential runs the same phases on one processor over a private copy.
func (a *WaterNsq) sequential(init []float64) []float64 {
	n := a.n
	m := append([]float64(nil), init...)
	half := n / 2
	for step := 0; step < a.steps; step++ {
		for i := 0; i < n; i++ {
			m[i*molF64s+0] += a.dt * m[i*molF64s+3]
			m[i*molF64s+1] += a.dt * m[i*molF64s+4]
			m[i*molF64s+2] += a.dt * m[i*molF64s+5]
			m[i*molF64s+6], m[i*molF64s+7], m[i*molF64s+8] = 0, 0, 0
		}
		for i := 0; i < n; i++ {
			for d := 1; d <= half; d++ {
				j := (i + d) % n
				fx, fy, fz, ok := a.pairForce(m[i*molF64s:i*molF64s+3], m[j*molF64s:j*molF64s+3])
				if !ok {
					continue
				}
				m[i*molF64s+6] += fx
				m[i*molF64s+7] += fy
				m[i*molF64s+8] += fz
				m[j*molF64s+6] -= fx
				m[j*molF64s+7] -= fy
				m[j*molF64s+8] -= fz
			}
		}
		for i := 0; i < n; i++ {
			m[i*molF64s+3] += a.dt * m[i*molF64s+6]
			m[i*molF64s+4] += a.dt * m[i*molF64s+7]
			m[i*molF64s+5] += a.dt * m[i*molF64s+8]
			m[i*molF64s+0] += a.dt * m[i*molF64s+3]
			m[i*molF64s+1] += a.dt * m[i*molF64s+4]
			m[i*molF64s+2] += a.dt * m[i*molF64s+5]
		}
	}
	out := make([]float64, n*3)
	for i := 0; i < n; i++ {
		out[i*3], out[i*3+1], out[i*3+2] = m[i*molF64s], m[i*molF64s+1], m[i*molF64s+2]
	}
	return out
}

// Verify implements core.App: force accumulation order differs between the
// parallel merge and the sequential loop, so compare with tolerance.
func (a *WaterNsq) Verify(h *core.Heap) error {
	got := make([]float64, a.n*3)
	m := h.F64s(a.mols, a.n*molF64s)
	for i := 0; i < a.n; i++ {
		got[i*3], got[i*3+1], got[i*3+2] = m[i*molF64s], m[i*molF64s+1], m[i*molF64s+2]
	}
	return checkClose("water-nsquared", got, a.ref, 1e-9)
}
