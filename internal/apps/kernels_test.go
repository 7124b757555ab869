package apps

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"dsmsim/internal/core"
)

// TestRowFFTMatchesDFT: the radix-2 kernel against a naive O(n²) DFT.
func TestRowFFTMatchesDFT(t *testing.T) {
	const m = 64
	rng := rand.New(rand.NewSource(5))
	row := make([]float64, 2*m)
	in := make([]complex128, m)
	for i := 0; i < m; i++ {
		re, im := rng.Float64()-0.5, rng.Float64()-0.5
		row[2*i], row[2*i+1] = re, im
		in[i] = complex(re, im)
	}
	rowFFT(row, m)
	for k := 0; k < m; k++ {
		var want complex128
		for j := 0; j < m; j++ {
			want += in[j] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*j)/float64(m)))
		}
		got := complex(row[2*k], row[2*k+1])
		if cmplx.Abs(got-want) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", k, got, want)
		}
	}
}

// TestLUFactorizationAlgebra: factoring and re-multiplying a small blocked
// matrix must reconstruct the original (no pivoting; diagonally dominant).
func TestLUFactorizationAlgebra(t *testing.T) {
	const n, bs = 32, 8
	a := NewLU(n, bs)
	orig := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			orig[i*n+j] = a.elem(i, j)
		}
	}
	fact := a.sequential() // block-major factored form
	// Reassemble the row-major LU matrix from block-major storage.
	nb := n / bs
	lu := make([]float64, n*n)
	for I := 0; I < nb; I++ {
		for J := 0; J < nb; J++ {
			blk := fact[(I*nb+J)*bs*bs : (I*nb+J+1)*bs*bs]
			for bi := 0; bi < bs; bi++ {
				for bj := 0; bj < bs; bj++ {
					lu[(I*bs+bi)*n+J*bs+bj] = blk[bi*bs+bj]
				}
			}
		}
	}
	// L (unit lower) times U must equal the original matrix.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for k := 0; k <= min(i, j); k++ {
				l := lu[i*n+k]
				if k == i {
					l = 1
				}
				if k > i {
					l = 0
				}
				u := lu[k*n+j]
				if k > j {
					u = 0
				}
				sum += l * u
			}
			if d := math.Abs(sum - orig[i*n+j]); d > 1e-6*math.Abs(orig[i*n+j])+1e-9 {
				t.Fatalf("LU reconstruction (%d,%d): %v vs %v", i, j, sum, orig[i*n+j])
			}
		}
	}
}

// TestOctantGeometry: the child center returned by octant always contains
// the point, and halving converges (quick property).
func TestOctantGeometry(t *testing.T) {
	f := func(px, py, pz uint16) bool {
		x := float64(px) / 65536 * barBox
		y := float64(py) / 65536 * barBox
		z := float64(pz) / 65536 * barBox
		cx, cy, cz, h := barBox/2, barBox/2, barBox/2, barBox/2
		for d := 0; d < 20; d++ {
			_, nx, ny, nz := octant(x, y, z, cx, cy, cz, h)
			h /= 2
			cx, cy, cz = nx, ny, nz
			// The point must stay inside the chosen child box.
			if math.Abs(x-cx) > h+1e-12 || math.Abs(y-cy) > h+1e-12 || math.Abs(z-cz) > h+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOceanAddrBijective: the Original layout's address mapping is a
// bijection from grid coordinates to disjoint cells.
func TestOceanAddrBijective(t *testing.T) {
	a := NewOcean(34, 1, false)
	a.initLayout()
	a.subOff = make([]int, a.pr*a.pc)
	off := 0
	for pi := 0; pi < a.pr; pi++ {
		for pj := 0; pj < a.pc; pj++ {
			r0, r1 := a.blockRows(pi)
			c0, c1 := a.blockCols(pj)
			a.subOff[pi*a.pc+pj] = off
			off += (r1 - r0) * (c1 - c0) * 8
		}
	}
	seen := map[int]bool{}
	for i := 0; i < a.n; i++ {
		for j := 0; j < a.n; j++ {
			ad := a.addr(i, j)
			if ad%8 != 0 || ad < 0 || ad >= off {
				t.Fatalf("addr(%d,%d) = %d out of range", i, j, ad)
			}
			if seen[ad] {
				t.Fatalf("addr(%d,%d) = %d collides", i, j, ad)
			}
			seen[ad] = true
		}
	}
	if len(seen) != a.n*a.n {
		t.Fatalf("covered %d cells, want %d", len(seen), a.n*a.n)
	}
}

// TestPairForceAntisymmetric: f(i,j) = -f(j,i) — the basis of Newton's
// third law in Water-Nsquared's half-interaction scheme.
func TestPairForceAntisymmetric(t *testing.T) {
	a := NewWaterNsq(8, 1)
	f := func(x1, y1, z1, x2, y2, z2 uint8) bool {
		p1 := []float64{float64(x1) / 256, float64(y1) / 256, float64(z1) / 256}
		p2 := []float64{float64(x2) / 256, float64(y2) / 256, float64(z2) / 256}
		fx, fy, fz, ok := a.pairForce(p1, p2)
		gx, gy, gz, ok2 := a.pairForce(p2, p1)
		if ok != ok2 {
			return false
		}
		return fx == -gx && fy == -gy && fz == -gz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCastRayProperties: opacity accumulation is monotone and the result
// depends only on the column content.
func TestCastRayProperties(t *testing.T) {
	col := make([]byte, 64)
	for i := range col {
		col[i] = byte(i * 4)
	}
	p1, s1 := castRay(col, 0)
	p2, s2 := castRay(col, 0)
	if p1 != p2 || s1 != s2 {
		t.Fatal("castRay not deterministic")
	}
	if s1 <= 0 || s1 > len(col) {
		t.Fatalf("samples = %d", s1)
	}
	empty, se := castRay(make([]byte, 64), 0)
	if empty != 0 || se != 64 {
		t.Fatalf("empty column: pix=%d samples=%d, want 0, 64", empty, se)
	}
}

// TestTraceSphereHit: a ray straight at a sphere's center hits it; one
// pointed away returns the background.
func TestTraceSphereHit(t *testing.T) {
	s := make([]float64, sphF64s)
	s[0], s[1], s[2] = 0, 0, 5 // center
	s[3] = 1                   // radius
	s[4], s[5], s[6] = 1, 0, 0 // red
	r, g, b, tests := trace(s, 1, 0, 0, 0, 0, 0, 1, 0)
	if tests < 1 {
		t.Fatal("no intersection tests counted")
	}
	if r <= 0.1 || g > r || b > r {
		t.Fatalf("head-on hit color = (%v,%v,%v), want red-dominated", r, g, b)
	}
	r2, _, b2, _ := trace(s, 1, 0, 0, 0, 0, 0, -1, 0)
	if r2 != 0.1 || b2 <= 0 {
		t.Fatalf("miss should return the background, got r=%v b=%v", r2, b2)
	}
}

// TestBarnesModeNames covers the mode stringer.
func TestBarnesModeNames(t *testing.T) {
	if BarnesOriginal.name() != "barnes-original" ||
		BarnesPartree.name() != "barnes-partree" ||
		BarnesSpatial.name() != "barnes-spatial" {
		t.Fatal("mode names wrong")
	}
}

// TestOceanSetupImage anchors the master image Ocean.Setup builds, in both
// layouts, to SHA-256 constants recorded at commit 0b38231, where Setup
// stored one cell at a time through addr; it now fills a contiguous row
// segment per view. Every cell is also read back through addr, the mapping
// the kernel uses, so the segments and the cells cannot disagree silently.
func TestOceanSetupImage(t *testing.T) {
	golden := map[string]string{
		"ocean-original": "1b40660e7ae5e41edaf02d1fc92f91c62f70690bab4a8605f2007966e02260d6",
		"ocean-rowwise":  "22116927bc43575e25ac9523758c3dfd87548353c32804cd185f3612558f91ef",
	}
	for _, name := range []string{"ocean-original", "ocean-rowwise"} {
		entry, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		a := entry.New(Small).(*Ocean)
		m, err := core.NewMachine(core.Config{Sequential: true, BlockSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(setupOnly{a})
		if err != nil {
			t.Fatal(err)
		}
		h := res.Heap
		for i := 0; i < a.n; i++ {
			for j := 0; j < a.n; j++ {
				if got, want := h.F64s(a.addr(i, j), 1)[0], a.initVal(i, j); got != want {
					t.Fatalf("%s: cell (%d,%d) = %v after Setup, want %v", name, i, j, got, want)
				}
			}
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(h.Bytes(0, h.Used()))); got != golden[name] {
			t.Errorf("%s: image after Setup has sha256 %s, recorded %s", name, got, golden[name])
		}
	}
}
