package apps

import (
	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

// Run implements core.App for all three Barnes versions.
func (a *Barnes) Run(c *core.Ctx) {
	p, me := c.NP(), c.ID()
	// The heap lays out barMaxProcs cell pools of a.poolSize cells each
	// (Setup cannot see the node count). Up to barMaxProcs processors each
	// own one full pool — the historical layout, kept bit-exact. Larger
	// clusters repartition the same laid-out pool space evenly: each
	// processor inserts ~n/p particles, so the shrunken slices stay
	// generous.
	poolSize := a.poolSize
	if p > barMaxProcs {
		poolSize = barMaxProcs * a.poolSize / p
		if poolSize == 0 {
			panic("barnes: cluster too large for the laid-out cell pools")
		}
	}
	rc := c.Protocol() != core.SC
	t := &treeCtx{c: c, a: a, rc: rc}

	// Each step resets the tree, builds it, computes centers of mass and
	// then forces. Partree's build spans two epochs (its barrier inside
	// carries the private tree) and spatial's centers of mass take two
	// phases, so both have five epochs a step where the original has four.
	per := 4
	if a.mode != BarnesOriginal {
		per = 5
	}
	c.Phases(per*a.steps, func(e int) {
		switch e % per {
		case 0:
			// Reset: proc 0 clears the root and, for the spatial version,
			// rebuilds the two-level skeleton.
			if me == 0 {
				a.resetTree(c)
			}
		case 1:
			// Build the tree.
			t.next = skelCells + me*poolSize
			t.poolEnd = t.next + poolSize
			switch a.mode {
			case BarnesOriginal:
				a.buildOriginal(c, t, p, me)
			case BarnesPartree:
				a.buildPartree(c, t, p, me)
			case BarnesSpatial:
				a.buildSpatial(c, t, p, me)
			}
		case per - 1:
			// Forces and integration for my particles. Particle records
			// straddle block boundaries (80-byte records), and neighbouring
			// particles belong to other writers, so updates go through
			// per-element writes — as the real programs' stores do — rather
			// than a multi-block span that would need simultaneous ownership
			// of contended blocks.
			inter := 0
			for _, i := range a.myParticles(c, p, me) {
				ax, ay, az, n := a.force(c, i)
				inter += n
				base := a.pAddr(i)
				old := c.F64sR(base, 6)
				vx := old[3] + barDt*ax
				vy := old[4] + barDt*ay
				vz := old[5] + barDt*az
				px := clampBox(old[0] + barDt*vx)
				py := clampBox(old[1] + barDt*vy)
				pz := clampBox(old[2] + barDt*vz)
				c.WriteF64(base+6*8, ax)
				c.WriteF64(base+7*8, ay)
				c.WriteF64(base+8*8, az)
				c.WriteF64(base+3*8, vx)
				c.WriteF64(base+4*8, vy)
				c.WriteF64(base+5*8, vz)
				c.WriteF64(base+0*8, px)
				c.WriteF64(base+1*8, py)
				c.WriteF64(base+2*8, pz)
			}
			c.Compute(sim.Time(inter) * a.perInter)
		default:
			// Centers of mass. The spatial version first summarizes each
			// processor's owned depth-2 subtrees, then proc 0 combines the
			// skeleton's top levels.
			switch {
			case a.mode != BarnesSpatial:
				if me == 0 {
					a.comPass(c, 0)
					c.Compute(sim.Time(a.n) * 300)
				}
			case e%per == 2:
				for _, sk := range a.mySkeleton(p, me) {
					a.comPass(c, sk.cell)
				}
				c.Compute(200 * sim.Microsecond)
			case me == 0:
				a.comSkeletonTop(c)
			}
		}
	})
}

func clampBox(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x >= barBox {
		return barBox * (1 - 1e-12)
	}
	return x
}

// resetTree clears the root (and builds the spatial skeleton).
func (a *Barnes) resetTree(c *core.Ctx) {
	clearCell := func(cell int) {
		ch := c.I64sW(a.childAddr(cell, 0), cellI64s)
		for i := range ch {
			ch[i] = 0
		}
		m := c.F64sW(a.massAddr(cell), cellF64s)
		m[0], m[1], m[2], m[3] = 0, 0, 0, 0
	}
	clearCell(0)
	if a.mode != BarnesSpatial {
		return
	}
	for cell := 1; cell < skelCells; cell++ {
		clearCell(cell)
	}
	// Link root → depth-1 (cells 1..8) → depth-2 (cells 9..72).
	for o1 := 0; o1 < 8; o1++ {
		c.WriteI64(a.childAddr(0, o1), int64(1+o1+1))
		for o2 := 0; o2 < 8; o2++ {
			c.WriteI64(a.childAddr(1+o1, o2), int64(9+o1*8+o2+1))
		}
	}
}

// buildOriginal inserts this node's index range of particles into the
// shared tree with per-cell locks (coarse under SC, per-step under RC).
func (a *Barnes) buildOriginal(c *core.Ctx, t *treeCtx, p, me int) {
	lo, hi := partition(a.n, p, me)
	half := barBox / 2
	for i := lo; i < hi; i++ {
		t.insert(i, 0, half, half, half, half)
		c.Compute(3 * sim.Microsecond)
	}
}

// lnode is a private (non-shared) tree node for the Partree version.
type lnode struct {
	children [8]*lnode
	particle int // >= 0 for a leaf, -1 for an internal node
}

// buildPartree builds a private tree over this node's particles, then
// merges it into the shared tree, locking only at graft points.
func (a *Barnes) buildPartree(c *core.Ctx, t *treeCtx, p, me int) {
	lo, hi := partition(a.n, p, me)
	half := barBox / 2
	var root *lnode
	insertLocal := func(i int, x, y, z float64) {
		if root == nil {
			root = &lnode{particle: -1}
		}
		cur := root
		cx, cy, cz, h := half, half, half, half
		for {
			oct, nx, ny, nz := octant(x, y, z, cx, cy, cz, h)
			ch := cur.children[oct]
			if ch == nil {
				cur.children[oct] = &lnode{particle: i}
				return
			}
			if ch.particle >= 0 {
				q := ch.particle
				qq := c.F64sR(a.pAddr(q), 3)
				nc := &lnode{particle: -1}
				qoct, _, _, _ := octant(qq[0], qq[1], qq[2], nx, ny, nz, h/2)
				nc.children[qoct] = ch
				cur.children[oct] = nc
				cur, cx, cy, cz, h = nc, nx, ny, nz, h/2
				continue
			}
			cur, cx, cy, cz, h = ch, nx, ny, nz, h/2
		}
	}
	for i := lo; i < hi; i++ {
		pp := c.F64sR(a.pAddr(i), 3)
		insertLocal(i, pp[0], pp[1], pp[2])
		c.Compute(2 * sim.Microsecond)
	}
	c.Barrier() // partial trees complete before merging begins
	if root != nil {
		a.merge(c, t, 0, root, half, half, half, half)
	}
}

// graft copies a private subtree into shared cells from this node's pool
// and returns the encoded child value for the subtree's root.
func (a *Barnes) graft(c *core.Ctx, t *treeCtx, ln *lnode) int64 {
	if ln.particle >= 0 {
		return int64(-(ln.particle + 1))
	}
	nc := t.allocCell()
	for oct, ch := range ln.children {
		if ch == nil {
			continue
		}
		c.WriteI64(a.childAddr(nc, oct), a.graft(c, t, ch))
	}
	return int64(nc + 1)
}

// merge folds private node ln into shared cell gcell. Locks are taken only
// when a shared slot is modified.
func (a *Barnes) merge(c *core.Ctx, t *treeCtx, gcell int, ln *lnode, cx, cy, cz, half float64) {
	for oct := 0; oct < 8; oct++ {
		lc := ln.children[oct]
		if lc == nil {
			continue
		}
		q := half / 2
		nx, ny, nz := cx-q, cy-q, cz-q
		if oct&4 != 0 {
			nx = cx + q
		}
		if oct&2 != 0 {
			ny = cy + q
		}
		if oct&1 != 0 {
			nz = cz + q
		}
		slot := a.childAddr(gcell, oct)
		for {
			// Under the RC variant even the descent read must hold the
			// cell's lock: an unlocked read can return a stale pointer
			// (cell pools are reused across steps), which is exactly the
			// class of bug §5.2 says forces extra synchronization in the
			// release-consistent Barnes. Under SC the plain read is
			// coherent and the lock is taken only to mutate.
			var gch int64
			locked := false
			if t.rc {
				c.Lock(cellLock(gcell))
				locked = true
			}
			gch = c.ReadI64(slot)
			if gch > 0 {
				if locked {
					c.Unlock(cellLock(gcell))
				}
				// Shared cell already there: recurse.
				if lc.particle >= 0 {
					t.insert(lc.particle, int(gch)-1, nx, ny, nz, half/2)
				} else {
					a.merge(c, t, int(gch)-1, lc, nx, ny, nz, half/2)
				}
				break
			}
			if !locked {
				c.Lock(cellLock(gcell))
				locked = true
				if again := c.ReadI64(slot); again != gch {
					c.Unlock(cellLock(gcell))
					continue // changed under us: re-examine
				}
			}
			if gch == 0 {
				// Free slot: graft the whole private subtree.
				c.WriteI64(slot, a.graft(c, t, lc))
				c.Unlock(cellLock(gcell))
				break
			}
			// A lone particle occupies the slot: push it one level down,
			// then retry the (now cell-valued) slot.
			qp := int(-gch - 1)
			nc := t.allocCell()
			qq := c.F64sR(a.pAddr(qp), 3)
			qoct, _, _, _ := octant(qq[0], qq[1], qq[2], nx, ny, nz, half/2)
			c.WriteI64(a.childAddr(nc, qoct), int64(-(qp + 1)))
			c.WriteI64(slot, int64(nc+1))
			c.Unlock(cellLock(gcell))
		}
	}
}

// skelRef names one depth-2 skeleton subtree.
type skelRef struct {
	cell       int
	cx, cy, cz float64
	half       float64
}

// mySkeleton lists the depth-2 subtrees this node owns (spatial version).
func (a *Barnes) mySkeleton(p, me int) []skelRef {
	var out []skelRef
	half := barBox / 2
	for o1 := 0; o1 < 8; o1++ {
		for o2 := 0; o2 < 8; o2++ {
			if (o1*8+o2)%p != me {
				continue
			}
			// Center of the depth-2 cell.
			c1x, c1y, c1z := subCenter(half, half, half, half, o1)
			c2x, c2y, c2z := subCenter(c1x, c1y, c1z, half/2, o2)
			out = append(out, skelRef{cell: 9 + o1*8 + o2, cx: c2x, cy: c2y, cz: c2z, half: half / 4})
		}
	}
	return out
}

func subCenter(cx, cy, cz, h float64, oct int) (x, y, z float64) {
	q := h / 2
	x, y, z = cx-q, cy-q, cz-q
	if oct&4 != 0 {
		x = cx + q
	}
	if oct&2 != 0 {
		y = cy + q
	}
	if oct&1 != 0 {
		z = cz + q
	}
	return
}

// topOctants returns the two top-level octants of a position.
func topOctants(x, y, z float64) (o1, o2 int) {
	half := barBox / 2
	o1, nx, ny, nz := octant4(x, y, z, half, half, half, half)
	o2, _, _, _ = octant4(x, y, z, nx, ny, nz, half/2)
	return
}

func octant4(x, y, z, cx, cy, cz, h float64) (oct int, nx, ny, nz float64) {
	return octant(x, y, z, cx, cy, cz, h)
}

// buildSpatial: each node scans every particle (the fine-grained read of
// "assigning spaces") and inserts those falling in its owned subtrees —
// exclusively, so no locks at all.
func (a *Barnes) buildSpatial(c *core.Ctx, t *treeCtx, p, me int) {
	t.noLocks = true
	defer func() { t.noLocks = false }()
	skel := a.mySkeleton(p, me)
	owned := make(map[int]skelRef, len(skel))
	for _, s := range skel {
		owned[s.cell] = s
	}
	for i := 0; i < a.n; i++ {
		pp := c.F64sR(a.pAddr(i), 3)
		o1, o2 := topOctants(pp[0], pp[1], pp[2])
		s, ok := owned[9+o1*8+o2]
		if !ok {
			continue
		}
		t.insert(i, s.cell, s.cx, s.cy, s.cz, s.half)
		c.Compute(1 * sim.Microsecond)
	}
}

// comSkeletonTop combines depth-2 summaries into depth-1 cells and the root.
func (a *Barnes) comSkeletonTop(c *core.Ctx) {
	for o1 := 0; o1 < 8; o1++ {
		var m, mx, my, mz float64
		for o2 := 0; o2 < 8; o2++ {
			cm := c.F64sR(a.massAddr(9+o1*8+o2), cellF64s)
			m += cm[0]
			mx += cm[0] * cm[1]
			my += cm[0] * cm[2]
			mz += cm[0] * cm[3]
		}
		out := c.F64sW(a.massAddr(1+o1), cellF64s)
		out[0] = m
		if m > 0 {
			out[1], out[2], out[3] = mx/m, my/m, mz/m
		}
	}
	var m, mx, my, mz float64
	for o1 := 0; o1 < 8; o1++ {
		cm := c.F64sR(a.massAddr(1+o1), cellF64s)
		m += cm[0]
		mx += cm[0] * cm[1]
		my += cm[0] * cm[2]
		mz += cm[0] * cm[3]
	}
	out := c.F64sW(a.massAddr(0), cellF64s)
	out[0] = m
	if m > 0 {
		out[1], out[2], out[3] = mx/m, my/m, mz/m
	}
}

// myParticles returns the particles this node integrates.
func (a *Barnes) myParticles(c *core.Ctx, p, me int) []int {
	if a.mode != BarnesSpatial {
		lo, hi := partition(a.n, p, me)
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	var out []int
	for i := 0; i < a.n; i++ {
		pp := c.F64sR(a.pAddr(i), 3)
		o1, o2 := topOctants(pp[0], pp[1], pp[2])
		if (o1*8+o2)%p == me {
			out = append(out, i)
		}
	}
	return out
}
