package apps

import (
	"fmt"
	"math"

	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

func init() {
	register("barnes-original", "barnes", func(size SizeClass) core.App {
		if size == Paper {
			return NewBarnes(16384, 2, BarnesOriginal)
		}
		return NewBarnes(128, 2, BarnesOriginal)
	})
	register("barnes-partree", "barnes", func(size SizeClass) core.App {
		if size == Paper {
			return NewBarnes(16384, 2, BarnesPartree)
		}
		return NewBarnes(128, 2, BarnesPartree)
	})
	register("barnes-spatial", "barnes", func(size SizeClass) core.App {
		if size == Paper {
			return NewBarnes(16384, 2, BarnesSpatial)
		}
		return NewBarnes(128, 2, BarnesSpatial)
	})
}

// BarnesMode selects the tree-building algorithm (§4, §5.3).
type BarnesMode int

const (
	// BarnesOriginal rebuilds the global tree from scratch with per-cell
	// locks: fine-grain synchronization, the paper's counter-example
	// where relaxed protocols never win. Under the LRC protocols the
	// program must lock every cell it visits to see fresh pointers (the
	// "added synchronization to comply with release consistency"); under
	// SC it locks only the cell it modifies, re-validating under the
	// lock — roughly 8× fewer lock operations, matching the paper's
	// 2,086 vs 17,167 runtime lock calls.
	BarnesOriginal BarnesMode = iota
	// BarnesPartree builds per-processor partial trees privately and
	// merges them into the global tree, locking only at graft points.
	BarnesPartree
	// BarnesSpatial assigns spaces, not particles: a fixed two-level
	// skeleton partitions the octree and each processor builds its owned
	// subtrees alone — no locks, barriers only, some load imbalance.
	BarnesSpatial
)

func (m BarnesMode) name() string {
	switch m {
	case BarnesOriginal:
		return "barnes-original"
	case BarnesPartree:
		return "barnes-partree"
	default:
		return "barnes-spatial"
	}
}

const (
	barBox       = 16.0 // fixed root bounding box [0, barBox)³
	barTheta2    = 0.8 * 0.8
	barEps       = 0.05
	barDt        = 0.01
	barG         = 0.001
	partF64s     = 10 // px py pz vx vy vz ax ay az mass
	cellI64s     = 8  // children
	cellF64s     = 4  // mass, com x/y/z
	cellBytes    = cellI64s*8 + cellF64s*8
	skelCells    = 73 // root + 8 + 64 for the spatial skeleton
	barMaxProcs  = 32 // cell pools laid out (bounds the runnable cluster)
	barLockBase  = 5000
	barLockCount = 512
)

// Barnes runs the Barnes-Hut hierarchical N-body method over n particles
// for a number of time steps, reproducing the three versions the paper
// evaluates. The shared octree lives in a cell pool; child slots encode
// emptiness (0), a cell (index+1) or a particle (-(index+1)).
type Barnes struct {
	n, steps int
	mode     BarnesMode

	parts    int // particle records
	cells    int // cell pool
	poolSize int // cells per processor pool

	ref []float64

	perInter sim.Time // cost per particle-node interaction
}

// NewBarnes creates the simulation. perInter is calibrated so the
// sequential Barnes-Original run lands near Table 1's 33.787 s at 16384
// particles.
func NewBarnes(n, steps int, mode BarnesMode) *Barnes {
	return &Barnes{n: n, steps: steps, mode: mode, perInter: 4800}
}

// Info implements core.App.
func (a *Barnes) Info() core.AppInfo {
	return core.AppInfo{
		Name:         a.mode.name(),
		HeapBytes:    a.n*partF64s*8 + a.maxCells()*cellBytes + 64*4096,
		PollDilation: 0.12,
	}
}

func (a *Barnes) maxCells() int { return skelCells + barMaxProcs*a.poolCells() }

// poolCells sizes each processor's private cell pool. A processor
// allocates roughly one cell per particle it inserts plus split chains for
// close pairs, and the Partree version additionally grafts whole private
// subtrees; insertions are unevenly distributed under clustering, so the
// pool is sized generously (pools are address space, mostly untouched).
func (a *Barnes) poolCells() int {
	return 2*a.n + 512
}

// Cell field addresses.
func (a *Barnes) childAddr(cell, oct int) int { return a.cells + cell*cellBytes + oct*8 }
func (a *Barnes) massAddr(cell int) int       { return a.cells + cell*cellBytes + 64 }
func (a *Barnes) pAddr(p int) int             { return a.parts + p*partF64s*8 }

// Setup implements core.App.
func (a *Barnes) Setup(h *core.Heap) {
	a.poolSize = a.poolCells()
	h.Label("particles")
	a.parts = h.AllocPage(a.n * partF64s * 8)
	h.Label("cells")
	a.cells = h.AllocPage(a.maxCells() * cellBytes)
	ps := h.F64s(a.parts, a.n*partF64s)
	for i := 0; i < a.n; i++ {
		p := ps[i*partF64s:]
		// A clustered distribution (two offset blobs) for load imbalance.
		blob := i % 2
		cx := 0.3 + 0.4*float64(blob)
		p[0] = (cx + 0.25*(hashNoise(51, i)-0.5)) * barBox
		p[1] = (0.5 + 0.3*(hashNoise(52, i)-0.5)) * barBox
		p[2] = (cx + 0.3*(hashNoise(53, i)-0.5)) * barBox
		p[3] = 0.05 * (hashNoise(54, i) - 0.5)
		p[4] = 0.05 * (hashNoise(55, i) - 0.5)
		p[5] = 0.05 * (hashNoise(56, i) - 0.5)
		p[9] = 1.0 / float64(a.n)
	}
	a.ref = sharedRef(refKey{a.mode.name(), [2]int{a.n, a.steps}}, func() []float64 { return a.sequential(ps) })
}

// octant returns the child octant of (x,y,z) in the cell centered at
// (cx,cy,cz), and the child's center given half size h.
func octant(x, y, z, cx, cy, cz, h float64) (oct int, nx, ny, nz float64) {
	q := h / 2
	nx, ny, nz = cx-q, cy-q, cz-q
	if x >= cx {
		oct |= 4
		nx = cx + q
	}
	if y >= cy {
		oct |= 2
		ny = cy + q
	}
	if z >= cz {
		oct |= 1
		nz = cz + q
	}
	return
}

// cellLock maps a cell index to one of the lock array's locks.
func cellLock(cell int) int { return barLockBase + cell%barLockCount }

// treeCtx carries the per-node tree-building state.
type treeCtx struct {
	c       *core.Ctx
	a       *Barnes
	rc      bool // lock every visited cell (release-consistent variant)
	noLocks bool // spatial build: exclusive subtree, no locking at all
	next    int  // next free cell in my pool
	poolEnd int
}

func (t *treeCtx) allocCell() int {
	if t.next >= t.poolEnd {
		panic(fmt.Sprintf("barnes: cell pool exhausted (pool size %d)", t.a.poolSize))
	}
	cell := t.next
	t.next++
	// Fresh cells are zeroed lazily: clear children and mass.
	ch := t.c.I64sW(t.a.childAddr(cell, 0), cellI64s)
	for i := range ch {
		ch[i] = 0
	}
	m := t.c.F64sW(t.a.massAddr(cell), cellF64s)
	m[0], m[1], m[2], m[3] = 0, 0, 0, 0
	return cell
}

// insert places particle p into the subtree rooted at cell start (with the
// given center and half size), using the variant's locking discipline.
func (t *treeCtx) insert(p, start int, cx, cy, cz, half float64) {
	c, a := t.c, t.a
	pp := c.F64sR(a.pAddr(p), 3)
	px, py, pz := pp[0], pp[1], pp[2]
	cur := start
	for {
		oct, nx, ny, nz := octant(px, py, pz, cx, cy, cz, half)
		slot := a.childAddr(cur, oct)
		locked := false
		if t.rc && !t.noLocks {
			c.Lock(cellLock(cur))
			locked = true
		}
		ch := c.ReadI64(slot)
		switch {
		case ch == 0:
			// Empty slot: claim it for p (SC variant locks just for the
			// mutation and re-validates).
			if !locked && !t.noLocks {
				c.Lock(cellLock(cur))
				locked = true
				if again := c.ReadI64(slot); again != 0 {
					c.Unlock(cellLock(cur))
					continue // somebody beat us: re-examine
				}
			}
			c.WriteI64(slot, int64(-(p + 1)))
			if locked {
				c.Unlock(cellLock(cur))
			}
			return
		case ch < 0:
			// Occupied by particle q: split the leaf.
			if !locked && !t.noLocks {
				c.Lock(cellLock(cur))
				locked = true
				if again := c.ReadI64(slot); again != ch {
					c.Unlock(cellLock(cur))
					continue
				}
			}
			q := int(-ch - 1)
			if q == p {
				// A split against itself would recurse forever; this can
				// only mean a particle was inserted twice (a stale-read
				// protocol bug) — fail loudly instead of hanging.
				panic(fmt.Sprintf("barnes: particle %d inserted twice", p))
			}
			nc := t.allocCell()
			qp := c.F64sR(a.pAddr(q), 3)
			qoct, _, _, _ := octant(qp[0], qp[1], qp[2], nx, ny, nz, half/2)
			c.WriteI64(a.childAddr(nc, qoct), int64(-(q + 1)))
			c.WriteI64(slot, int64(nc+1))
			if locked {
				c.Unlock(cellLock(cur))
			}
			cur, cx, cy, cz, half = nc, nx, ny, nz, half/2
		default:
			// Descend into the child cell.
			if locked {
				c.Unlock(cellLock(cur))
			}
			cur, cx, cy, cz, half = int(ch)-1, nx, ny, nz, half/2
		}
	}
}

// comPass computes mass and center of mass bottom-up for the subtree at
// cell; returns (mass, mx, my, mz) where m* are mass-weighted sums.
func (a *Barnes) comPass(c *core.Ctx, cell int) (m, mx, my, mz float64) {
	for oct := 0; oct < cellI64s; oct++ {
		ch := c.ReadI64(a.childAddr(cell, oct))
		if ch == 0 {
			continue
		}
		if ch < 0 {
			p := int(-ch - 1)
			pp := c.F64sR(a.pAddr(p), partF64s)
			pm := pp[9]
			m += pm
			mx += pm * pp[0]
			my += pm * pp[1]
			mz += pm * pp[2]
			continue
		}
		cm, cmx, cmy, cmz := a.comPass(c, int(ch)-1)
		m += cm
		mx += cmx
		my += cmy
		mz += cmz
	}
	out := c.F64sW(a.massAddr(cell), cellF64s)
	out[0] = m
	if m > 0 {
		out[1], out[2], out[3] = mx/m, my/m, mz/m
	}
	return m, mx, my, mz
}

// force computes the acceleration on particle p by walking the tree with
// the opening criterion width² < θ²·d². Returns the interaction count.
func (a *Barnes) force(c *core.Ctx, p int) (ax, ay, az float64, inter int) {
	pp := c.F64sR(a.pAddr(p), 3)
	px, py, pz := pp[0], pp[1], pp[2]
	type frame struct {
		cell int
		half float64
	}
	stack := make([]frame, 0, 64)
	stack = append(stack, frame{0, barBox / 2})
	addPoint := func(m, x, y, z float64) {
		dx, dy, dz := x-px, y-py, z-pz
		r2 := dx*dx + dy*dy + dz*dz + barEps
		inv := 1 / (r2 * math.Sqrt(r2))
		f := barG * m * inv
		ax += f * dx
		ay += f * dy
		az += f * dz
	}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cm := c.F64sR(a.massAddr(fr.cell), cellF64s)
		if cm[0] == 0 {
			continue
		}
		dx, dy, dz := cm[1]-px, cm[2]-py, cm[3]-pz
		d2 := dx*dx + dy*dy + dz*dz
		w := 2 * fr.half
		if w*w < barTheta2*d2 {
			addPoint(cm[0], cm[1], cm[2], cm[3])
			inter++
			continue
		}
		for oct := cellI64s - 1; oct >= 0; oct-- {
			ch := c.ReadI64(a.childAddr(fr.cell, oct))
			if ch == 0 {
				continue
			}
			if ch < 0 {
				q := int(-ch - 1)
				if q == p {
					continue
				}
				qp := c.F64sR(a.pAddr(q), partF64s)
				addPoint(qp[9], qp[0], qp[1], qp[2])
				inter++
				continue
			}
			stack = append(stack, frame{int(ch) - 1, fr.half / 2})
		}
	}
	return
}
