package apps

import (
	"fmt"
	"math"

	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

func init() {
	// 60 iterations (120 barriers) keeps the steady-state sweep behaviour
	// of the paper's Ocean while bounding simulation wall-clock; the
	// per-sweep fault and traffic patterns are what Figure 1 reflects.
	register("ocean-original", "ocean", func(size SizeClass) core.App {
		if size == Paper {
			return NewOcean(514, 60, false)
		}
		return NewOcean(66, 8, false)
	})
	register("ocean-rowwise", "ocean", func(size SizeClass) core.App {
		if size == Paper {
			return NewOcean(514, 60, true)
		}
		return NewOcean(66, 8, true)
	})
}

// Ocean simulates eddy currents in an ocean basin with an iterative
// red-black Gauss-Seidel solver over an n×n grid (border included), the
// communication core of the SPLASH-2 application. The two versions differ
// exactly as in §4:
//
//   - Ocean-Original partitions the grid into square subblocks, each
//     subgrid allocated contiguously (the 4-D-array layout). Reading a
//     neighbour's border column touches one element per subgrid row —
//     fine-grained access with heavy fragmentation at coarse blocks.
//   - Ocean-Rowwise partitions row-wise over a row-major array: border
//     rows are contiguous — coarse-grained access. With n=514 the strips
//     do not align to pages, leaving some false sharing at 4 KB.
//
// Both are single-writer applications: every interior cell is written only
// by its owner.
type Ocean struct {
	n       int  // grid dimension including boundary
	iters   int  // red+black sweep pairs
	rowwise bool // partitioning/layout selector

	grid int // shared base address

	// Original layout bookkeeping (pr×pc processor grid over subblocks).
	pr, pc int
	subR   []int // row range starts per proc row, len pr+1
	subC   []int // col range starts per proc col, len pc+1
	subOff []int // per proc: address of its contiguous subgrid

	ref []float64 // sequential reference (row-major full grid)

	perFlop sim.Time
}

// NewOcean creates an Ocean instance; n includes the fixed boundary.
func NewOcean(n, iters int, rowwise bool) *Ocean {
	return &Ocean{n: n, iters: iters, rowwise: rowwise, perFlop: 150}
}

// Info implements core.App.
func (a *Ocean) Info() core.AppInfo {
	name := "ocean-original"
	if a.rowwise {
		name = "ocean-rowwise"
	}
	return core.AppInfo{
		Name:         name,
		HeapBytes:    a.n*a.n*8 + 32*4096,
		PollDilation: 0.12,
	}
}

// layoutGrid chooses the pr×pc processor grid for the Original version's
// subblock decomposition (fixed at the paper's 16 processors so the data
// layout is independent of the run's node count).
const oceanLayoutP = 16

func (a *Ocean) initLayout() {
	p := oceanLayoutP
	pr := 1
	for pr*pr < p {
		pr++
	}
	for p%pr != 0 {
		pr--
	}
	a.pr, a.pc = pr, p/pr
	inner := a.n - 2
	a.subR = make([]int, a.pr+1)
	a.subC = make([]int, a.pc+1)
	for i := 0; i <= a.pr; i++ {
		lo, _ := partition(inner, a.pr, min(i, a.pr-1))
		if i == a.pr {
			lo = inner
		}
		a.subR[i] = lo + 1 // +1 for boundary
	}
	for j := 0; j <= a.pc; j++ {
		lo, _ := partition(inner, a.pc, min(j, a.pc-1))
		if j == a.pc {
			lo = inner
		}
		a.subC[j] = lo + 1
	}
}

// Setup implements core.App.
func (a *Ocean) Setup(h *core.Heap) {
	n := a.n
	if a.rowwise {
		h.Label("grid")
		a.grid = h.AllocPage(n * n * 8)
	} else {
		a.initLayout()
		// Allocate each subgrid (including one layout block per owner of
		// the boundary-adjacent cells) contiguously, page aligned. The
		// boundary rows/cols are folded into the edge subgrids.
		a.subOff = make([]int, a.pr*a.pc)
		for pi := 0; pi < a.pr; pi++ {
			for pj := 0; pj < a.pc; pj++ {
				r0, r1 := a.blockRows(pi)
				c0, c1 := a.blockCols(pj)
				h.Label(fmt.Sprintf("subgrid-%d.%d", pi, pj))
				a.subOff[pi*a.pc+pj] = h.AllocPage((r1 - r0) * (c1 - c0) * 8)
			}
		}
	}
	// Initialize: boundary is a fixed potential, interior a deterministic
	// field.
	a.eachSegment(h, func(i, c0 int, seg []float64) {
		for j := range seg {
			seg[j] = a.initVal(i, c0+j)
		}
	})
	a.ref = sharedRef(refKey{a.Info().Name, [2]int{a.n, a.iters}}, a.sequential)
}

// blockRows returns the grid row range [r0, r1) stored in proc-row pi's
// subgrids (edge subgrids absorb the boundary rows).
func (a *Ocean) blockRows(pi int) (int, int) {
	r0, r1 := a.subR[pi], a.subR[pi+1]
	if pi == 0 {
		r0 = 0
	}
	if pi == a.pr-1 {
		r1 = a.n
	}
	return r0, r1
}

func (a *Ocean) blockCols(pj int) (int, int) {
	c0, c1 := a.subC[pj], a.subC[pj+1]
	if pj == 0 {
		c0 = 0
	}
	if pj == a.pc-1 {
		c1 = a.n
	}
	return c0, c1
}

// ownerRC returns the layout-grid owner of grid cell (i, j).
func (a *Ocean) ownerRC(i, j int) (int, int) {
	pi := 0
	for pi+1 < a.pr && i >= a.subR[pi+1] {
		pi++
	}
	pj := 0
	for pj+1 < a.pc && j >= a.subC[pj+1] {
		pj++
	}
	return pi, pj
}

// addr maps grid coordinates to a shared address under the active layout.
func (a *Ocean) addr(i, j int) int {
	if a.rowwise {
		return a.grid + (i*a.n+j)*8
	}
	pi, pj := a.ownerRC(i, j)
	r0, _ := a.blockRows(pi)
	c0, c1 := a.blockCols(pj)
	w := c1 - c0
	return a.subOff[pi*a.pc+pj] + ((i-r0)*w+(j-c0))*8
}

// eachSegment calls f, in row order, with every maximal run of cells of one
// grid row that is contiguous in the master image: the whole row when
// rowwise, one subgrid's width otherwise. seg[j] is cell (i, c0+j). One
// view per segment marks the heap's page map once, not once per cell.
func (a *Ocean) eachSegment(h *core.Heap, f func(i, c0 int, seg []float64)) {
	n := a.n
	for i := 0; i < n; i++ {
		for c0 := 0; c0 < n; {
			c1 := n
			if !a.rowwise {
				_, pj := a.ownerRC(i, c0)
				_, c1 = a.blockCols(pj)
			}
			f(i, c0, h.F64s(a.addr(i, c0), c1-c0))
			c0 = c1
		}
	}
}

func (a *Ocean) initVal(i, j int) float64 {
	n := a.n
	if i == 0 || j == 0 || i == n-1 || j == n-1 {
		return math.Sin(float64(i)*0.1) + math.Cos(float64(j)*0.1)
	}
	return hashNoise(3, i*n+j)
}

// Run implements core.App: iters red-black sweeps with a barrier after each
// color, each node updating its own partition.
func (a *Ocean) Run(c *core.Ctx) { a.RunFrom(c, 0) }

// RunFrom implements core.ResumableApp: one barrier per color sweep, so
// epoch e resumes at iteration e/2, color e%2.
func (a *Ocean) RunFrom(c *core.Ctx, epoch int) {
	n, p, me := a.n, c.NP(), c.ID()
	st := newStepper(c, epoch)

	// The runtime partition is always row-contiguous over interior rows
	// for rowwise; for original, partition the layout subblocks among the
	// actual nodes.
	var mine []span
	if a.rowwise {
		lo, hi := partition(n-2, p, me)
		mine = []span{{lo + 1, hi + 1, 1, n - 1}}
	} else {
		for pi := 0; pi < a.pr; pi++ {
			for pj := 0; pj < a.pc; pj++ {
				if (pi*a.pc+pj)%p != me {
					continue
				}
				r0, r1 := a.subR[pi], a.subR[pi+1]
				c0, c1 := a.subC[pj], a.subC[pj+1]
				mine = append(mine, span{r0, r1, c0, c1})
			}
		}
	}

	for it := 0; it < a.iters; it++ {
		for color := 0; color < 2; color++ {
			color := color
			st.step(func() { a.sweep(c, mine, color) })
			st.barrier()
		}
	}
}

// span is one rectangle of grid cells a node owns at run time.
type span struct{ r0, r1, c0, c1 int }

// sweep performs one color's update over this node's spans, charging the
// sweep's computation; the caller provides the trailing barrier.
func (a *Ocean) sweep(c *core.Ctx, mine []span, color int) {
	cells := 0
	for _, s := range mine {
		for i := s.r0; i < s.r1; i++ {
			w := s.c1 - s.c0
			// Row segments are contiguous under both layouts:
			// the row above/below lives in the vertical
			// neighbour's partition but spans the same column
			// range. The west/east border elements are the
			// fine-grained single-element reads of the
			// Original version (§5.2).
			up := c.F64sR(a.addr(i-1, s.c0), w)
			down := c.F64sR(a.addr(i+1, s.c0), w)
			west := c.ReadF64(a.addr(i, s.c0-1))
			east := c.ReadF64(a.addr(i, s.c1))
			// Read snapshot of the row for the left/right
			// neighbours (the other colour: stable this sweep).
			rowR := c.F64sR(a.addr(i, s.c0), w)
			// Writes go block-chunk by block-chunk: neighbours
			// read this row continuously, and a multi-block
			// writable span would need every covered block
			// simultaneously — real per-store programs never
			// require that, and under 16-node read pressure it
			// livelocks. Each chunk is the LAST Ctx call before
			// its writes.
			rowAddr := a.addr(i, s.c0)
			bs := c.BlockSize()
			for off := 0; off < w; {
				chunkAddr := rowAddr + off*8
				elems := (bs - chunkAddr%bs) / 8
				if elems <= 0 {
					elems = 1
				}
				if off+elems > w {
					elems = w - off
				}
				chunk := c.F64sW(chunkAddr, elems)
				j0 := s.c0 + off
				if (i+j0)%2 != color {
					j0++
				}
				for j := j0; j < s.c0+off+elems; j += 2 {
					left := west
					if j > s.c0 {
						left = rowR[j-1-s.c0]
					}
					right := east
					if j < s.c1-1 {
						right = rowR[j+1-s.c0]
					}
					chunk[j-s.c0-off] = 0.25 * (up[j-s.c0] + down[j-s.c0] + left + right)
					cells++
				}
				off += elems
			}
		}
	}
	c.Compute(sim.Time(cells*6) * a.perFlop)
}

// sequential runs the identical sweeps on a private row-major copy.
func (a *Ocean) sequential() []float64 {
	n := a.n
	g := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g[i*n+j] = a.initVal(i, j)
		}
	}
	for it := 0; it < a.iters; it++ {
		for color := 0; color < 2; color++ {
			for i := 1; i < n-1; i++ {
				for j := 1; j < n-1; j++ {
					if (i+j)%2 != color {
						continue
					}
					g[i*n+j] = 0.25 * (g[(i-1)*n+j] + g[(i+1)*n+j] + g[i*n+j-1] + g[i*n+j+1])
				}
			}
		}
	}
	return g
}

// Verify implements core.App: red-black sweeps are order-independent within
// a color, so the result must match the reference exactly.
func (a *Ocean) Verify(h *core.Heap) error {
	var err error
	a.eachSegment(h, func(i, c0 int, seg []float64) {
		for j, got := range seg {
			if want := a.ref[i*a.n+c0+j]; got != want && err == nil {
				err = fmt.Errorf("ocean: cell (%d,%d) = %v, want %v", i, c0+j, got, want)
			}
		}
	})
	return err
}
