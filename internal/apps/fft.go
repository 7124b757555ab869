package apps

import (
	"fmt"
	"math"

	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

func init() {
	register("fft", "fft", func(size SizeClass) core.App {
		if size == Paper {
			return NewFFT(1 << 20) // 1M complex points (Table 1)
		}
		return NewFFT(1 << 12)
	})
}

// FFT is the SPLASH-2 high-performance 1-D FFT kernel: n complex points
// viewed as a √n×√n matrix, computed with the six-step algorithm
// (transpose, row FFTs, twiddle multiply, transpose, row FFTs, transpose).
// Each processor owns n/p contiguous matrix rows; during a transpose it
// reads a √n/p × √n/p submatrix from every other processor — the
// fine-grained remote read pattern §5.2 analyzes (Table 6).
type FFT struct {
	n, m int // points and matrix dimension (n = m²)

	src, dst int // shared addresses of the two matrices (complex, 2 f64s)

	ref []float64 // sequential reference of the final dst matrix

	perFlop sim.Time
}

// NewFFT creates the kernel for n complex points; n must be a power of 4 so
// the matrix is square with power-of-two rows.
func NewFFT(n int) *FFT {
	m := 1
	for m*m < n {
		m *= 2
	}
	if m*m != n {
		panic("fft: n must be a perfect square power of two")
	}
	return &FFT{n: n, m: m, perFlop: 240}
}

// Info implements core.App. The butterfly kernels are tight loops, so the
// backedge polling instrumentation dilates FFT computation substantially,
// second only to LU (§5.4).
func (a *FFT) Info() core.AppInfo {
	return core.AppInfo{
		Name:         "fft",
		HeapBytes:    2*a.n*16 + 65536,
		PollDilation: 0.40,
	}
}

// Setup implements core.App.
func (a *FFT) Setup(h *core.Heap) {
	h.Label("src")
	a.src = h.AllocPage(a.n * 16)
	h.Label("dst")
	a.dst = h.AllocPage(a.n * 16)
	s := h.F64s(a.src, a.n*2)
	for i := 0; i < a.n; i++ {
		s[2*i] = hashNoise(7, i) - 0.5
		s[2*i+1] = hashNoise(13, i) - 0.5
	}
	a.ref = sharedRef(refKey{"fft", [2]int{a.n}}, func() []float64 { return a.sequentialRef(s) })
}

// rowFFT performs an in-place iterative radix-2 FFT of m complex points.
func rowFFT(row []float64, m int) {
	// Bit reversal.
	for i, j := 0, 0; i < m; i++ {
		if i < j {
			row[2*i], row[2*j] = row[2*j], row[2*i]
			row[2*i+1], row[2*j+1] = row[2*j+1], row[2*i+1]
		}
		mask := m >> 1
		for j&mask != 0 {
			j &^= mask
			mask >>= 1
		}
		j |= mask
	}
	for size := 2; size <= m; size <<= 1 {
		half := size >> 1
		step := -2 * math.Pi / float64(size)
		for lo := 0; lo < m; lo += size {
			for k := 0; k < half; k++ {
				wr, wi := math.Cos(step*float64(k)), math.Sin(step*float64(k))
				i0, i1 := lo+k, lo+k+half
				xr, xi := row[2*i1]*wr-row[2*i1+1]*wi, row[2*i1]*wi+row[2*i1+1]*wr
				row[2*i1], row[2*i1+1] = row[2*i0]-xr, row[2*i0+1]-xi
				row[2*i0], row[2*i0+1] = row[2*i0]+xr, row[2*i0+1]+xi
			}
		}
	}
}

// Run implements core.App: an empty first phase (the initial barrier),
// then one phase per step of the six.
func (a *FFT) Run(c *core.Ctx) {
	m, p, me := a.m, c.NP(), c.ID()
	lo, hi := partition(m, p, me)
	rows := hi - lo
	flops := func(f int) { c.Compute(sim.Time(f) * a.perFlop) }

	transpose := func(from, to int) {
		// Build my rows [lo,hi) of `to` by reading columns of `from`:
		// for each source row sc, elements [lo,hi) are one contiguous
		// subrow — the n/p × n/p submatrix read the paper describes.
		// Source blocks are read-only during a transpose, so the input
		// span stays content-valid across output write faults.
		for q := 0; q < p; q++ {
			qlo, qhi := partition(m, p, q)
			for sc := qlo; sc < qhi; sc++ {
				in := c.F64sR(from+(sc*m+lo)*16, rows*2)
				for r := 0; r < rows; r++ {
					addr := to + ((lo+r)*m+sc)*16
					c.WriteF64(addr, in[2*r])
					c.WriteF64(addr+8, in[2*r+1])
				}
			}
			flops((qhi - qlo) * rows)
		}
	}

	fftRows := func(at int) {
		for r := lo; r < hi; r++ {
			row := c.F64sW(at+r*m*16, m*2)
			rowFFT(row, m)
			flops(5 * m * ilog2(m))
		}
	}

	c.Phases(7, func(e int) {
		switch e {
		case 1:
			transpose(a.src, a.dst)
		case 2:
			fftRows(a.dst)
		case 3:
			// Twiddle multiply on my rows of dst.
			for r := lo; r < hi; r++ {
				row := c.F64sW(a.dst+r*m*16, m*2)
				for col := 0; col < m; col++ {
					ang := -2 * math.Pi * float64(r) * float64(col) / float64(a.n)
					wr, wi := math.Cos(ang), math.Sin(ang)
					xr, xi := row[2*col], row[2*col+1]
					row[2*col], row[2*col+1] = xr*wr-xi*wi, xr*wi+xi*wr
				}
				flops(6 * m)
			}
		case 4:
			transpose(a.dst, a.src)
		case 5:
			fftRows(a.src)
		case 6:
			transpose(a.src, a.dst)
		}
	})
}

func ilog2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// sequentialRef runs the same six steps sequentially on a private copy.
func (a *FFT) sequentialRef(src []float64) []float64 {
	m := a.m
	s := append([]float64(nil), src...)
	d := make([]float64, len(s))
	tr := func(from, to []float64) {
		for r := 0; r < m; r++ {
			for col := 0; col < m; col++ {
				to[(r*m+col)*2] = from[(col*m+r)*2]
				to[(r*m+col)*2+1] = from[(col*m+r)*2+1]
			}
		}
	}
	tr(s, d)
	for r := 0; r < m; r++ {
		rowFFT(d[r*m*2:(r+1)*m*2], m)
	}
	for r := 0; r < m; r++ {
		for col := 0; col < m; col++ {
			ang := -2 * math.Pi * float64(r) * float64(col) / float64(a.n)
			wr, wi := math.Cos(ang), math.Sin(ang)
			xr, xi := d[(r*m+col)*2], d[(r*m+col)*2+1]
			d[(r*m+col)*2], d[(r*m+col)*2+1] = xr*wr-xi*wi, xr*wi+xi*wr
		}
	}
	tr(d, s)
	for r := 0; r < m; r++ {
		rowFFT(s[r*m*2:(r+1)*m*2], m)
	}
	tr(s, d)
	return d
}

// Verify implements core.App: identical arithmetic order means the result
// must match the sequential reference exactly.
func (a *FFT) Verify(h *core.Heap) error {
	got := h.F64s(a.dst, a.n*2)
	for i := range got {
		if got[i] != a.ref[i] {
			return fmt.Errorf("fft: element %d = %v, want %v", i, got[i], a.ref[i])
		}
	}
	return nil
}
