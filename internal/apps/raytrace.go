package apps

import (
	"fmt"
	"math"

	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

func init() {
	register("raytrace", "raytrace", func(size SizeClass) core.App {
		if size == Paper {
			return NewRaytrace(256, 512)
		}
		return NewRaytrace(32, 32)
	})
}

// sphF64s is the float64 record size per sphere: center, radius, color,
// and a reflectivity coefficient.
const sphF64s = 8

// Raytrace renders a procedural scene of reflective spheres (a stand-in
// for the SPLASH-2 balls scene, which is not redistributable) with primary
// rays, shadow rays to a point light, and one reflection bounce. The scene
// is read-only shared data; the interesting communication is task stealing
// through distributed task queues and the image-plane writes (§4,
// Table 11). The rendered image is a pure function of the scene, so the
// parallel result must match the sequential render exactly.
type Raytrace struct {
	w  int // image dimension
	ns int // sphere count

	spheres int // shared address of sphere records
	image   int // shared address of w×w int32 pixels
	tq      *taskQueues

	ref []int32

	perTest sim.Time // cost per ray-sphere intersection test
}

// NewRaytrace creates a renderer with a w×w image over ns spheres.
func NewRaytrace(w, ns int) *Raytrace {
	return &Raytrace{w: w, ns: ns, perTest: 4100}
}

// Info implements core.App.
func (a *Raytrace) Info() core.AppInfo {
	return core.AppInfo{
		Name:         "raytrace",
		HeapBytes:    a.ns*sphF64s*8 + a.w*a.w*4 + 64*4096 + (2+8192)*8*16,
		PollDilation: 0.08,
	}
}

// Setup implements core.App.
func (a *Raytrace) Setup(h *core.Heap) {
	h.Label("spheres")
	a.spheres = h.AllocPage(a.ns * sphF64s * 8)
	s := h.F64s(a.spheres, a.ns*sphF64s)
	for i := 0; i < a.ns; i++ {
		r := s[i*sphF64s:]
		r[0] = hashNoise(31, i)*8 - 4 // cx
		r[1] = hashNoise(32, i)*8 - 4 // cy
		r[2] = hashNoise(33, i)*6 + 4 // cz (in front of the camera)
		r[3] = 0.15 + 0.35*hashNoise(34, i)
		r[4] = hashNoise(35, i) // color r
		r[5] = hashNoise(36, i) // color g
		r[6] = hashNoise(37, i) // color b
		r[7] = 0.3 * hashNoise(38, i)
	}
	h.Label("image")
	a.image = h.AllocPage(a.w * a.w * 4)
	// Tasks: 4×4 pixel tiles, dealt to the 16 layout queues; filled in
	// setup so the render phase needs only its single barrier (Table 2
	// lists one barrier for Raytrace).
	tiles := (a.w / 4) * (a.w / 4)
	a.tq = newTaskQueues(h, 16, tiles, 100)
	// Deal tiles round-robin: adjacent tiles belong to different
	// processors, giving the image-plane false sharing of Table 11.
	for q := 0; q < 16; q++ {
		var tasks []int64
		for t := q; t < tiles; t += 16 {
			tasks = append(tasks, int64(t))
		}
		a.tq.masterFill(h, q, tasks)
	}
	a.ref = sharedRef(refKey{"raytrace", [2]int{a.w, a.ns}}, func() []int32 { return a.renderSeq(s) })
}

// trace intersects a ray with every sphere and shades the closest hit with
// a diffuse term, a shadow test, and one reflection. It returns the packed
// color and the number of intersection tests performed.
func trace(s []float64, ns int, ox, oy, oz, dx, dy, dz float64, depth int) (r, g, b float64, tests int) {
	bestT, best := math.Inf(1), -1
	for i := 0; i < ns; i++ {
		sp := s[i*sphF64s:]
		cx, cy, cz, rad := sp[0]-ox, sp[1]-oy, sp[2]-oz, sp[3]
		tb := cx*dx + cy*dy + cz*dz
		d2 := cx*cx + cy*cy + cz*cz - tb*tb
		tests++
		if d2 > rad*rad {
			continue
		}
		th := math.Sqrt(rad*rad - d2)
		t := tb - th
		if t < 1e-6 {
			t = tb + th
		}
		if t > 1e-6 && t < bestT {
			bestT, best = t, i
		}
	}
	if best < 0 {
		// Background gradient.
		return 0.1, 0.1, 0.2 + 0.2*dy, tests
	}
	sp := s[best*sphF64s:]
	px, py, pz := ox+bestT*dx, oy+bestT*dy, oz+bestT*dz
	nx, ny, nz := (px-sp[0])/sp[3], (py-sp[1])/sp[3], (pz-sp[2])/sp[3]
	// Point light.
	const lx, ly, lz = 5.0, 8.0, -2.0
	ldx, ldy, ldz := lx-px, ly-py, lz-pz
	ll := math.Sqrt(ldx*ldx + ldy*ldy + ldz*ldz)
	ldx, ldy, ldz = ldx/ll, ldy/ll, ldz/ll
	diff := nx*ldx + ny*ldy + nz*ldz
	if diff < 0 {
		diff = 0
	}
	// Shadow ray.
	shadow := false
	for i := 0; i < ns; i++ {
		if i == best {
			continue
		}
		q := s[i*sphF64s:]
		cx, cy, cz, rad := q[0]-px, q[1]-py, q[2]-pz, q[3]
		tb := cx*ldx + cy*ldy + cz*ldz
		d2 := cx*cx + cy*cy + cz*cz - tb*tb
		tests++
		if tb > 1e-6 && tb < ll && d2 < rad*rad {
			shadow = true
			break
		}
	}
	if shadow {
		diff *= 0.2
	}
	r, g, b = sp[4]*(0.15+0.85*diff), sp[5]*(0.15+0.85*diff), sp[6]*(0.15+0.85*diff)
	if depth > 0 && sp[7] > 0 {
		dot := dx*nx + dy*ny + dz*nz
		rx, ry, rz := dx-2*dot*nx, dy-2*dot*ny, dz-2*dot*nz
		rr, rg, rb, rt := trace(s, ns, px+1e-4*rx, py+1e-4*ry, pz+1e-4*rz, rx, ry, rz, depth-1)
		tests += rt
		r += sp[7] * rr
		g += sp[7] * rg
		b += sp[7] * rb
	}
	return r, g, b, tests
}

func packColor(r, g, b float64) int32 {
	cl := func(v float64) int32 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 255
		}
		return int32(v * 255)
	}
	return cl(r)<<16 | cl(g)<<8 | cl(b)
}

// pixelRay returns the primary ray direction for pixel (x, y).
func (a *Raytrace) pixelRay(x, y int) (dx, dy, dz float64) {
	fx := (float64(x)+0.5)/float64(a.w)*2 - 1
	fy := (float64(y)+0.5)/float64(a.w)*2 - 1
	l := math.Sqrt(fx*fx + fy*fy + 1)
	return fx / l, fy / l, 1 / l
}

// Run implements core.App: one phase, rendering tiles until every queue is
// empty.
func (a *Raytrace) Run(c *core.Ctx) {
	me := c.ID()
	tw := a.w / 4
	c.Phases(1, func(int) {
		for {
			task, ok := a.tq.pop(c, me%16)
			if !ok {
				break
			}
			tx, ty := int(task)%tw, int(task)/tw
			s := c.F64sR(a.spheres, a.ns*sphF64s)
			tests := 0
			for y := ty * 4; y < ty*4+4; y++ {
				for x := tx * 4; x < tx*4+4; x++ {
					dx, dy, dz := a.pixelRay(x, y)
					r, g, b, t := trace(s, a.ns, 0, 0, 0, dx, dy, dz, 1)
					tests += t
					c.WriteI32(a.image+(y*a.w+x)*4, packColor(r, g, b))
				}
			}
			c.Compute(sim.Time(tests) * a.perTest)
		}
	})
}

// renderSeq renders the whole image sequentially.
func (a *Raytrace) renderSeq(s []float64) []int32 {
	img := make([]int32, a.w*a.w)
	for y := 0; y < a.w; y++ {
		for x := 0; x < a.w; x++ {
			dx, dy, dz := a.pixelRay(x, y)
			r, g, b, _ := trace(s, a.ns, 0, 0, 0, dx, dy, dz, 1)
			img[y*a.w+x] = packColor(r, g, b)
		}
	}
	return img
}

// Verify implements core.App.
func (a *Raytrace) Verify(h *core.Heap) error {
	got := h.I32s(a.image, a.w*a.w)
	for i := range got {
		if got[i] != a.ref[i] {
			return fmt.Errorf("raytrace: pixel %d = %d, want %d", i, got[i], a.ref[i])
		}
	}
	return nil
}
