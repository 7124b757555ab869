package apps

import (
	"fmt"
	"math"

	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

func init() {
	register("lu", "lu", func(size SizeClass) core.App {
		if size == Paper {
			return NewLU(1024, 16)
		}
		return NewLU(64, 8)
	})
}

// LU performs the blocked dense LU factorization of an n×n matrix without
// pivoting (the SPLASH-2 kernel). Each B×B block is contiguous in the
// shared address space and blocks are assigned to processors in a 2-D
// scatter, with each processor's blocks allocated contiguously — the
// version the paper uses (§4). It is the canonical single-writer,
// coarse-grain-access application: one writer per block and zero write
// faults after first touch (Table 3).
type LU struct {
	n, bsz int // matrix dimension and block dimension
	nb     int // blocks per dimension

	base      int   // shared address of the block array
	blockAddr []int // address of each (I,J) block, I*nb+J

	ref []float64 // sequential reference result

	// perFlop calibrates computation cost (≈100ns/flop on the 66MHz
	// HyperSPARC reproduces Table 1's 73.41s at 1024×1024).
	perFlop sim.Time
}

// NewLU creates an LU instance for an n×n matrix with B×B blocks.
func NewLU(n, b int) *LU {
	if n%b != 0 {
		panic("lu: n must be a multiple of b")
	}
	return &LU{n: n, bsz: b, nb: n / b, perFlop: 100}
}

// Info implements core.App. The paper reports LU's polling instrumentation
// costs 55% on one processor (§5.4) — its inner loops are short backedges.
func (a *LU) Info() core.AppInfo {
	return core.AppInfo{
		Name: "lu",
		// Blocks plus page-alignment padding of each processor's region.
		HeapBytes:    a.nb*a.nb*a.bsz*a.bsz*8 + 32*4096,
		PollDilation: 0.55,
	}
}

// grid is the 2-D scatter decomposition of p processors over the blocks:
// pr processor rows, pr the largest divisor of p not above ⌈√p⌉, by pc
// columns. Derived once per run, not once per ownership test.
type grid struct{ pr, pc int }

func newGrid(p int) grid {
	pr := 1
	for pr*pr < p {
		pr++
	}
	for p%pr != 0 {
		pr--
	}
	return grid{pr, p / pr}
}

// owner returns the processor owning block (I,J).
func (g grid) owner(I, J int) int { return (I%g.pr)*g.pc + J%g.pc }

// Setup implements core.App: allocate blocks owner-contiguously and fill
// the matrix with a well-conditioned deterministic pattern.
func (a *LU) Setup(h *core.Heap) {
	nb := a.nb
	a.blockAddr = make([]int, nb*nb)
	// Allocate each processor's blocks contiguously, each region page
	// aligned, as in the contiguous SPLASH-2 LU. The layout must not
	// depend on the run's node count, so lay out for the paper's 16
	// processors; owners at run time recompute with the actual NP.
	const layoutP = 16
	layout := newGrid(layoutP)
	for pid := 0; pid < layoutP; pid++ {
		var mine []int
		for I := 0; I < nb; I++ {
			for J := 0; J < nb; J++ {
				if layout.owner(I, J) == pid {
					mine = append(mine, I*nb+J)
				}
			}
		}
		if len(mine) == 0 {
			continue
		}
		h.Label(fmt.Sprintf("blocks-p%d", pid))
		region := h.AllocPage(len(mine) * a.bsz * a.bsz * 8)
		for i, idx := range mine {
			a.blockAddr[idx] = region + i*a.bsz*a.bsz*8
		}
	}
	// Deterministic diagonally dominant matrix.
	for I := 0; I < nb; I++ {
		for J := 0; J < nb; J++ {
			blk := h.F64s(a.blockAddr[I*nb+J], a.bsz*a.bsz)
			for bi := 0; bi < a.bsz; bi++ {
				for bj := 0; bj < a.bsz; bj++ {
					gi, gj := I*a.bsz+bi, J*a.bsz+bj
					blk[bi*a.bsz+bj] = a.elem(gi, gj)
				}
			}
		}
	}
	a.ref = sharedRef(refKey{"lu", [2]int{a.n, a.bsz}}, a.sequential)
}

func (a *LU) elem(i, j int) float64 {
	if i == j {
		return float64(a.n) + 10
	}
	return 1 + hashNoise(42, i*a.n+j)
}

// factor performs the unblocked LU of a B×B diagonal block in place.
func factorDiag(d []float64, b int) {
	for k := 0; k < b; k++ {
		pivot := 1 / d[k*b+k]
		for i := k + 1; i < b; i++ {
			d[i*b+k] *= pivot
			lik := d[i*b+k]
			for j := k + 1; j < b; j++ {
				d[i*b+j] -= lik * d[k*b+j]
			}
		}
	}
}

// bdivLower solves A = A · U⁻¹ for a block below the diagonal.
func bdivLower(blk, diag []float64, b int) {
	for k := 0; k < b; k++ {
		inv := 1 / diag[k*b+k]
		for i := 0; i < b; i++ {
			blk[i*b+k] *= inv
			aik := blk[i*b+k]
			for j := k + 1; j < b; j++ {
				blk[i*b+j] -= aik * diag[k*b+j]
			}
		}
	}
}

// bmodRight solves A = L⁻¹ · A for a block right of the diagonal.
func bmodRight(blk, diag []float64, b int) {
	for k := 0; k < b; k++ {
		for i := k + 1; i < b; i++ {
			lik := diag[i*b+k]
			for j := 0; j < b; j++ {
				blk[i*b+j] -= lik * blk[k*b+j]
			}
		}
	}
}

// bmodInterior computes A -= L · U for an interior block.
func bmodInterior(blk, l, u []float64, b int) {
	for i := 0; i < b; i++ {
		for k := 0; k < b; k++ {
			lik := l[i*b+k]
			if lik == 0 {
				continue
			}
			for j := 0; j < b; j++ {
				blk[i*b+j] -= lik * u[k*b+j]
			}
		}
	}
}

// Run implements core.App: three phases per elimination step k, at epochs
// 3k, 3k+1 and 3k+2.
func (a *LU) Run(c *core.Ctx) {
	nb, b, g, me := a.nb, a.bsz, newGrid(c.NP()), c.ID()
	bb := b * b
	flops := func(f int) { c.Compute(sim.Time(f) * a.perFlop) }

	c.Phases(3*nb, func(e int) {
		k := e / 3
		kk := a.blockAddr[k*nb+k]
		switch e % 3 {
		case 0:
			if g.owner(k, k) == me {
				d := c.F64sW(kk, bb)
				factorDiag(d, b)
				flops(2 * b * b * b / 3)
			}
		case 1:
			// Perimeter blocks in column k and row k. The write span must be
			// acquired LAST: any earlier fault (the diag read) yields virtual
			// time, during which a false-sharing writer — possible once a
			// coherence block straddles two owners' regions — can steal the
			// write span's block, leaving a stale slice whose updates would be
			// lost. Reads are safe in either order because the diag values are
			// stable between barriers.
			diag := c.F64sR(kk, bb)
			for i := k + 1; i < nb; i++ {
				if g.owner(i, k) == me {
					diag = c.F64sR(kk, bb) // re-span after potential fault
					blk := c.F64sW(a.blockAddr[i*nb+k], bb)
					bdivLower(blk, diag, b)
					flops(b * b * b)
				}
				if g.owner(k, i) == me {
					diag = c.F64sR(kk, bb)
					blk := c.F64sW(a.blockAddr[k*nb+i], bb)
					bmodRight(blk, diag, b)
					flops(b * b * b)
				}
			}
		case 2:
			// Interior updates.
			for i := k + 1; i < nb; i++ {
				for j := k + 1; j < nb; j++ {
					if g.owner(i, j) != me {
						continue
					}
					blk := c.F64sW(a.blockAddr[i*nb+j], bb)
					l := c.F64sR(a.blockAddr[i*nb+k], bb)
					u := c.F64sR(a.blockAddr[k*nb+j], bb)
					blk = c.F64sW(a.blockAddr[i*nb+j], bb) // re-span
					bmodInterior(blk, l, u, b)
					flops(2 * b * b * b)
				}
			}
		}
	})
}

// sequential computes the reference factorization on a private copy.
func (a *LU) sequential() []float64 {
	n, b, nb := a.n, a.bsz, a.nb
	bb := b * b
	m := make([][]float64, nb*nb)
	for I := 0; I < nb; I++ {
		for J := 0; J < nb; J++ {
			blk := make([]float64, bb)
			for bi := 0; bi < b; bi++ {
				for bj := 0; bj < b; bj++ {
					blk[bi*b+bj] = a.elem(I*b+bi, J*b+bj)
				}
			}
			m[I*nb+J] = blk
		}
	}
	for k := 0; k < nb; k++ {
		factorDiag(m[k*nb+k], b)
		for i := k + 1; i < nb; i++ {
			bdivLower(m[i*nb+k], m[k*nb+k], b)
			bmodRight(m[k*nb+i], m[k*nb+k], b)
		}
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				bmodInterior(m[i*nb+j], m[i*nb+k], m[k*nb+j], b)
			}
		}
	}
	out := make([]float64, 0, n*n)
	for idx := 0; idx < nb*nb; idx++ {
		out = append(out, m[idx]...)
	}
	return out
}

// Verify implements core.App: the parallel factorization performs the same
// arithmetic in the same order, so the result must match exactly.
func (a *LU) Verify(h *core.Heap) error {
	nb, bb := a.nb, a.bsz*a.bsz
	for idx := 0; idx < nb*nb; idx++ {
		got := h.F64s(a.blockAddr[idx], bb)
		want := a.ref[idx*bb : (idx+1)*bb]
		for e := range got {
			if math.Abs(got[e]-want[e]) > 1e-12*math.Max(1, math.Abs(want[e])) {
				return fmt.Errorf("lu: block %d elem %d = %v, want %v", idx, e, got[e], want[e])
			}
		}
	}
	return nil
}
