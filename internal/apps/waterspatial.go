package apps

import (
	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

func init() {
	register("water-spatial", "water-spatial", func(size SizeClass) core.App {
		if size == Paper {
			return NewWaterSpatial(4096, 5)
		}
		return NewWaterSpatial(64, 2)
	})
}

// WaterSpatial solves the same molecular dynamics problem as
// Water-Nsquared with the SPLASH-2 spatial algorithm: the 3-D box is cut
// into cells at least one cutoff radius on a side, molecules live in
// per-cell linked lists threaded through shared memory, and each processor
// owns a contiguous box of cells. Forces read the 27 neighbouring cells
// (fine-grained remote reads); molecule motion relinks list nodes across
// cell — and partition — boundaries under per-cell locks. As molecules
// move, a processor's molecules scatter across the shared array, giving
// the fine-grain multiple-writer pattern of Table 10.
type WaterSpatial struct {
	n, steps int
	side     int // cells per dimension (cell size = 1 cutoff)

	mols  int // molecule records (molF64s f64s each)
	next  int // per-molecule next link (i64)
	heads int // per-cell list head (i64)

	dt float64

	ref []float64

	perPair sim.Time
}

// NewWaterSpatial creates the system with n molecules advanced steps times.
func NewWaterSpatial(n, steps int) *WaterSpatial {
	side := 2
	for side*side*side*4 < n {
		side++
	}
	return &WaterSpatial{
		n: n, steps: steps, side: side, dt: 0.05,
		// Calibrated to Table 1: 898 s for 4096 molecules × 5 steps.
		perPair: 640 * sim.Microsecond,
	}
}

// Info implements core.App.
func (a *WaterSpatial) Info() core.AppInfo {
	nc := a.side * a.side * a.side
	return core.AppInfo{
		Name:         "water-spatial",
		HeapBytes:    a.n*molF64s*8 + a.n*8 + nc*8 + 64*4096,
		PollDilation: 0.08,
	}
}

func (a *WaterSpatial) cellOf(x, y, z float64) int {
	s := a.side
	cx, cy, cz := int(x), int(y), int(z)
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	if cz < 0 {
		cz = 0
	}
	if cx >= s {
		cx = s - 1
	}
	if cy >= s {
		cy = s - 1
	}
	if cz >= s {
		cz = s - 1
	}
	return (cx*s+cy)*s + cz
}

// Setup implements core.App.
func (a *WaterSpatial) Setup(h *core.Heap) {
	s := a.side
	nc := s * s * s
	h.Label("molecules")
	a.mols = h.AllocPage(a.n * molF64s * 8)
	h.Label("next-links")
	a.next = h.AllocPage(a.n * 8)
	h.Label("cell-heads")
	a.heads = h.AllocPage(nc * 8)

	m := h.F64s(a.mols, a.n*molF64s)
	nx := h.I64s(a.next, a.n)
	hd := h.I64s(a.heads, nc)
	for c := 0; c < nc; c++ {
		hd[c] = -1
	}
	for i := 0; i < a.n; i++ {
		m[i*molF64s+0] = hashNoise(41, i) * float64(s)
		m[i*molF64s+1] = hashNoise(42, i) * float64(s)
		m[i*molF64s+2] = hashNoise(43, i) * float64(s)
		m[i*molF64s+3] = (hashNoise(44, i) - 0.5) * 2
		m[i*molF64s+4] = (hashNoise(45, i) - 0.5) * 2
		m[i*molF64s+5] = (hashNoise(46, i) - 0.5) * 2
		c := a.cellOf(m[i*molF64s], m[i*molF64s+1], m[i*molF64s+2])
		nx[i] = hd[c]
		hd[c] = int64(i)
	}
	a.ref = sharedRef(refKey{"water-spatial", [2]int{a.n, a.steps}}, func() []float64 { return a.sequential(m, nx, hd) })
}

// procBox returns the factorization of p into a 3-D processor grid.
func procBox(p int) (px, py, pz int) {
	px, py, pz = 1, 1, 1
	dims := []*int{&px, &py, &pz}
	d := 0
	for rem := p; rem > 1; {
		f := 2
		for rem%f != 0 {
			f++
		}
		*dims[d%3] *= f
		rem /= f
		d++
	}
	return
}

// myCells lists the cells in processor me's box, in ascending order.
func (a *WaterSpatial) myCells(p, me int) []int {
	s := a.side
	px, py, pz := procBox(p)
	ix := me / (py * pz)
	iy := (me / pz) % py
	iz := me % pz
	x0, x1 := partition(s, px, ix)
	y0, y1 := partition(s, py, iy)
	z0, z1 := partition(s, pz, iz)
	var out []int
	for x := x0; x < x1; x++ {
		for y := y0; y < y1; y++ {
			for z := z0; z < z1; z++ {
				out = append(out, (x*s+y)*s+z)
			}
		}
	}
	return out
}

// neighborCells returns cell c and its neighbours (≤27 cells), cut from buf.
func (a *WaterSpatial) neighborCells(c int, buf *[27]int) []int {
	s := a.side
	cx, cy, cz := c/(s*s), (c/s)%s, c%s
	out := buf[:0]
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				x, y, z := cx+dx, cy+dy, cz+dz
				if x < 0 || y < 0 || z < 0 || x >= s || y >= s || z >= s {
					continue
				}
				out = append(out, (x*s+y)*s+z)
			}
		}
	}
	return out
}

// pairForceSpatial is the same soft potential as Water-Nsquared with the
// cell-size cutoff.
func pairForceSpatial(xi, yi, zi, xj, yj, zj float64) (fx, fy, fz float64, ok bool) {
	dx, dy, dz := xi-xj, yi-yj, zi-zj
	r2 := dx*dx + dy*dy + dz*dz
	if r2 >= 1.0 || r2 == 0 {
		return 0, 0, 0, false
	}
	inv := 1 / (r2 + 0.01)
	f := 0.001 * (inv*inv - 0.5*inv)
	return f * dx, f * dy, f * dz, true
}

// Run implements core.App.
func (a *WaterSpatial) Run(c *core.Ctx) {
	p, me := c.NP(), c.ID()
	cells := a.myCells(p, me)
	const lockBase = 1000

	// listOf reads cell cl's molecule list into buf: own holds the list of
	// the cell being worked on, nb that of the neighbour being read.
	var own, nb []int64
	var neighBuf [27]int
	listOf := func(buf []int64, cl int) []int64 {
		out := buf[:0]
		cur := c.ReadI64(a.heads + cl*8)
		for cur >= 0 {
			out = append(out, cur)
			cur = c.ReadI64(a.next + int(cur)*8)
		}
		return out
	}

	// Four epochs per time step: predict, forces, and integrate-then-relink,
	// whose barrier between the two carries the moves and is no cut point.
	c.Phases(4*a.steps, func(e int) {
		switch e % 4 {
		case 0:
			// Predict positions of molecules in my cells; zero forces.
			nmine := 0
			for _, cl := range cells {
				own = listOf(own, cl)
				for _, i := range own {
					m := c.F64sW(a.mols+int(i)*molF64s*8, molF64s)
					m[0] += a.dt * m[3]
					m[1] += a.dt * m[4]
					m[2] += a.dt * m[5]
					m[6], m[7], m[8] = 0, 0, 0
					nmine++
				}
			}
			c.Compute(sim.Time(nmine) * 2 * sim.Microsecond)
		case 1:
			// Forces — full neighbour sums for my molecules, reading
			// neighbouring cells (remote at partition faces).
			pairs := 0
			for _, cl := range cells {
				neigh := a.neighborCells(cl, &neighBuf)
				own = listOf(own, cl)
				for _, i := range own {
					mi := c.F64sR(a.mols+int(i)*molF64s*8, 3)
					xi, yi, zi := mi[0], mi[1], mi[2]
					var fx, fy, fz float64
					for _, ncl := range neigh {
						nb = listOf(nb, ncl)
						for _, j := range nb {
							if j == i {
								continue
							}
							mj := c.F64sR(a.mols+int(j)*molF64s*8, 3)
							dfx, dfy, dfz, ok := pairForceSpatial(xi, yi, zi, mj[0], mj[1], mj[2])
							pairs++
							if !ok {
								continue
							}
							fx += dfx
							fy += dfy
							fz += dfz
						}
					}
					f := c.F64sW(a.mols+(int(i)*molF64s+6)*8, 3)
					f[0], f[1], f[2] = fx, fy, fz
				}
			}
			c.Compute(sim.Time(pairs) * a.perPair)
		case 2:
			// Integrate my molecules and note which must change cells.
			// Relinking waits for the barrier so no list changes while any
			// processor is still iterating it (and no molecule is
			// integrated twice after moving into a not-yet-visited cell).
			type move struct{ i, from, to int }
			var moves []move
			nmine := 0
			for _, cl := range cells {
				own = listOf(own, cl)
				for _, i := range own {
					ii := int(i)
					m := c.F64sW(a.mols+ii*molF64s*8, molF64s)
					m[3] += a.dt * m[6]
					m[4] += a.dt * m[7]
					m[5] += a.dt * m[8]
					nxp := m[0] + a.dt*m[3]
					nyp := m[1] + a.dt*m[4]
					nzp := m[2] + a.dt*m[5]
					// Reflect at the box walls.
					lim := float64(a.side)
					if nxp < 0 || nxp >= lim {
						m[3] = -m[3]
						nxp = m[0]
					}
					if nyp < 0 || nyp >= lim {
						m[4] = -m[4]
						nyp = m[1]
					}
					if nzp < 0 || nzp >= lim {
						m[5] = -m[5]
						nzp = m[2]
					}
					m[0], m[1], m[2] = nxp, nyp, nzp
					if newCell := a.cellOf(nxp, nyp, nzp); newCell != cl {
						moves = append(moves, move{ii, cl, newCell})
					}
					nmine++
				}
			}
			c.Compute(sim.Time(nmine) * 3 * sim.Microsecond)
			c.Barrier()

			// Relink movers under per-cell locks (the multiple-writer
			// phase crossing partition boundaries).
			for _, mv := range moves {
				a.relink(c, mv.i, mv.from, mv.to, lockBase)
			}
			c.Compute(sim.Time(len(moves)) * 5 * sim.Microsecond)
		}
	})
}

// relink moves molecule i from cell old to cell new under both cells'
// locks (ordered by id to avoid deadlock).
func (a *WaterSpatial) relink(c *core.Ctx, i, old, nw, lockBase int) {
	l1, l2 := old, nw
	if l1 > l2 {
		l1, l2 = l2, l1
	}
	c.Lock(lockBase + l1)
	if l2 != l1 {
		c.Lock(lockBase + l2)
	}
	// Unlink from old.
	prev := -1
	cur := c.ReadI64(a.heads + old*8)
	for cur != int64(i) {
		prev = int(cur)
		cur = c.ReadI64(a.next + int(cur)*8)
	}
	nxt := c.ReadI64(a.next + i*8)
	if prev < 0 {
		c.WriteI64(a.heads+old*8, nxt)
	} else {
		c.WriteI64(a.next+prev*8, nxt)
	}
	// Link into new (at head).
	c.WriteI64(a.next+i*8, c.ReadI64(a.heads+nw*8))
	c.WriteI64(a.heads+nw*8, int64(i))
	if l2 != l1 {
		c.Unlock(lockBase + l2)
	}
	c.Unlock(lockBase + l1)
}

// sequential runs the same algorithm on private copies.
func (a *WaterSpatial) sequential(m0 []float64, nx0 []int64, hd0 []int64) []float64 {
	m := append([]float64(nil), m0...)
	nx := append([]int64(nil), nx0...)
	hd := append([]int64(nil), hd0...)
	s := a.side
	nc := s * s * s
	listOf := func(cl int) []int64 {
		var out []int64
		for cur := hd[cl]; cur >= 0; cur = nx[cur] {
			out = append(out, cur)
		}
		return out
	}
	var neighBuf [27]int
	for step := 0; step < a.steps; step++ {
		for cl := 0; cl < nc; cl++ {
			for _, i := range listOf(cl) {
				m[i*molF64s+0] += a.dt * m[i*molF64s+3]
				m[i*molF64s+1] += a.dt * m[i*molF64s+4]
				m[i*molF64s+2] += a.dt * m[i*molF64s+5]
				m[i*molF64s+6], m[i*molF64s+7], m[i*molF64s+8] = 0, 0, 0
			}
		}
		for cl := 0; cl < nc; cl++ {
			neigh := a.neighborCells(cl, &neighBuf)
			for _, i := range listOf(cl) {
				xi, yi, zi := m[i*molF64s], m[i*molF64s+1], m[i*molF64s+2]
				var fx, fy, fz float64
				for _, ncl := range neigh {
					for _, j := range listOf(ncl) {
						if j == i {
							continue
						}
						dfx, dfy, dfz, ok := pairForceSpatial(xi, yi, zi, m[j*molF64s], m[j*molF64s+1], m[j*molF64s+2])
						if !ok {
							continue
						}
						fx += dfx
						fy += dfy
						fz += dfz
					}
				}
				m[i*molF64s+6], m[i*molF64s+7], m[i*molF64s+8] = fx, fy, fz
			}
		}
		type move struct {
			i        int64
			from, to int
		}
		var moves []move
		for cl := 0; cl < nc; cl++ {
			for _, i := range listOf(cl) {
				ii := int(i)
				m[ii*molF64s+3] += a.dt * m[ii*molF64s+6]
				m[ii*molF64s+4] += a.dt * m[ii*molF64s+7]
				m[ii*molF64s+5] += a.dt * m[ii*molF64s+8]
				nxp := m[ii*molF64s+0] + a.dt*m[ii*molF64s+3]
				nyp := m[ii*molF64s+1] + a.dt*m[ii*molF64s+4]
				nzp := m[ii*molF64s+2] + a.dt*m[ii*molF64s+5]
				lim := float64(a.side)
				if nxp < 0 || nxp >= lim {
					m[ii*molF64s+3] = -m[ii*molF64s+3]
					nxp = m[ii*molF64s+0]
				}
				if nyp < 0 || nyp >= lim {
					m[ii*molF64s+4] = -m[ii*molF64s+4]
					nyp = m[ii*molF64s+1]
				}
				if nzp < 0 || nzp >= lim {
					m[ii*molF64s+5] = -m[ii*molF64s+5]
					nzp = m[ii*molF64s+2]
				}
				m[ii*molF64s+0], m[ii*molF64s+1], m[ii*molF64s+2] = nxp, nyp, nzp
				if newCell := a.cellOf(nxp, nyp, nzp); newCell != cl {
					moves = append(moves, move{i, cl, newCell})
				}
			}
		}
		for _, mv := range moves {
			prev := int64(-1)
			cur := hd[mv.from]
			for cur != mv.i {
				prev = cur
				cur = nx[cur]
			}
			if prev < 0 {
				hd[mv.from] = nx[mv.i]
			} else {
				nx[prev] = nx[mv.i]
			}
			nx[mv.i] = hd[mv.to]
			hd[mv.to] = mv.i
		}
	}
	out := make([]float64, a.n*3)
	for i := 0; i < a.n; i++ {
		out[i*3], out[i*3+1], out[i*3+2] = m[i*molF64s], m[i*molF64s+1], m[i*molF64s+2]
	}
	return out
}

// Verify implements core.App: list orders (and hence accumulation orders)
// differ between parallel and sequential runs, so compare with tolerance.
func (a *WaterSpatial) Verify(h *core.Heap) error {
	m := h.F64s(a.mols, a.n*molF64s)
	got := make([]float64, a.n*3)
	for i := 0; i < a.n; i++ {
		got[i*3], got[i*3+1], got[i*3+2] = m[i*molF64s], m[i*molF64s+1], m[i*molF64s+2]
	}
	return checkClose("water-spatial", got, a.ref, 1e-8)
}
