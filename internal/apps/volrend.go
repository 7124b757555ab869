package apps

import (
	"fmt"

	"dsmsim/internal/core"
	"dsmsim/internal/sim"
)

func init() {
	register("volrend-original", "volrend", func(size SizeClass) core.App {
		if size == Paper {
			return NewVolrend(128, 4, false)
		}
		return NewVolrend(32, 2, false)
	})
	register("volrend-rowwise", "volrend", func(size SizeClass) core.App {
		if size == Paper {
			return NewVolrend(128, 4, true)
		}
		return NewVolrend(32, 2, true)
	})
}

// Volrend renders a 3-D volume into an image by ray casting, following the
// SPLASH-2 application's structure: distributed task queues with stealing,
// and a shared image plane whose writes cause write-write false sharing.
// The two versions differ only in task shape (§4): Volrend-Original uses
// 4×4-pixel tiles (better load balance, heavy false sharing on the image);
// Volrend-Rowwise uses whole image rows (coarser writes that match the
// row-major image layout).
type Volrend struct {
	v       int  // volume dimension (v³ bytes)
	frames  int  // rendered frames (parameters vary slightly per frame)
	rowwise bool // task shape selector

	volume int // shared address: v³ density bytes (read-only)
	image  int // shared address: v×v int32 pixels
	tq     *taskQueues

	ref []int32 // sequential reference image of the final frame

	perSample sim.Time
}

// NewVolrend creates the renderer; the image is v×v pixels.
func NewVolrend(v, frames int, rowwise bool) *Volrend {
	return &Volrend{v: v, frames: frames, rowwise: rowwise, perSample: 530}
}

// Info implements core.App.
func (a *Volrend) Info() core.AppInfo {
	name := "volrend-original"
	if a.rowwise {
		name = "volrend-rowwise"
	}
	return core.AppInfo{
		Name:         name,
		HeapBytes:    a.v*a.v*a.v + a.v*a.v*4 + 64*4096 + (2+4096)*8*16,
		PollDilation: 0.10,
	}
}

// density is the synthetic volume: a few blobs in a gradient field.
func (a *Volrend) density(x, y, z int) byte {
	v := a.v
	cx, cy, cz := float64(x-v/2), float64(y-v/3), float64(z-v/2)
	d := cx*cx + cy*cy + cz*cz
	r := float64(v) * 0.35
	val := 0.0
	if d < r*r {
		val = 200 * (1 - d/(r*r))
	}
	val += 30 * hashNoise(21, (x*v+y)*v+z)
	if val > 255 {
		val = 255
	}
	return byte(val)
}

// Setup implements core.App.
func (a *Volrend) Setup(h *core.Heap) {
	v := a.v
	h.Label("volume")
	a.volume = h.AllocPage(v * v * v)
	vol := h.Bytes(a.volume, v*v*v)
	for x := 0; x < v; x++ {
		for y := 0; y < v; y++ {
			for z := 0; z < v; z++ {
				vol[(x*v+y)*v+z] = a.density(x, y, z)
			}
		}
	}
	h.Label("image")
	a.image = h.AllocPage(v * v * 4)
	a.tq = newTaskQueues(h, 16, a.numTasks(), 100)
	a.ref = sharedRef(refKey{a.Info().Name, [2]int{a.v, a.frames}}, func() []int32 { return a.renderSeq(vol, a.frames-1) })
}

// numTasks returns the task count for the active task shape.
func (a *Volrend) numTasks() int {
	if a.rowwise {
		return a.v
	}
	return (a.v / 4) * (a.v / 4)
}

// taskPixels returns the pixel rectangle of a task id.
func (a *Volrend) taskPixels(task int64) (x0, y0, x1, y1 int) {
	if a.rowwise {
		return 0, int(task), a.v, int(task) + 1
	}
	tw := a.v / 4
	tx, ty := int(task)%tw, int(task)/tw
	return tx * 4, ty * 4, tx*4 + 4, ty*4 + 4
}

// castRay integrates one volume column (the samples along a pixel's ray)
// front to back with the frame's opacity threshold, returning a packed
// intensity and the number of samples taken.
func castRay(col []byte, frame int) (int32, int) {
	acc, alpha := 0.0, 0.0
	thresh := 0.9 + 0.02*float64(frame)
	samples := 0
	for _, raw := range col {
		d := float64(raw) / 255
		op := d * d * 0.08
		acc += (1 - alpha) * op * d * 255
		alpha += (1 - alpha) * op
		samples++
		if alpha >= thresh {
			break
		}
	}
	return int32(acc), samples
}

// Run implements core.App: four phases per frame, the last of them empty
// (the frame boundary).
func (a *Volrend) Run(c *core.Ctx) {
	v, p, me := a.v, c.NP(), c.ID()
	c.Phases(4*a.frames, func(e int) {
		frame := e / 4
		switch e % 4 {
		case 0:
			// Refill my share of the 16 layout queues. Tasks are dealt
			// round-robin, so spatially adjacent tiles belong to different
			// processors — the write-write false sharing on the image plane
			// that §5.2 attributes to Volrend's small square tiles (it is
			// not eliminated even at 64-byte blocks).
			for q := me; q < 16; q += p {
				var tasks []int64
				for t := q; t < a.numTasks(); t += 16 {
					tasks = append(tasks, int64(t))
				}
				a.tq.fill(c, q, tasks)
			}
		case 1:
			// Render: pop tasks (stealing when idle), write shared image.
			for {
				task, ok := a.tq.pop(c, me%16)
				if !ok {
					break
				}
				x0, y0, x1, y1 := a.taskPixels(task)
				samples := 0
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						// The volume is read-only: span per ray column.
						col := c.BytesR(a.volume+(x*v+y)*v, v)
						pix, s := castRay(col, frame)
						samples += s
						c.WriteI32(a.image+(y*v+x)*4, pix)
					}
				}
				c.Compute(sim.Time(samples) * a.perSample)
			}
		case 2:
			// Frame analysis: a small reduction under a lock, as in the
			// application's per-frame bookkeeping.
			c.Lock(99)
			c.Compute(20 * sim.Microsecond)
			c.Unlock(99)
		}
	})
}

// renderSeq renders the given frame sequentially.
func (a *Volrend) renderSeq(vol []byte, frame int) []int32 {
	v := a.v
	img := make([]int32, v*v)
	for y := 0; y < v; y++ {
		for x := 0; x < v; x++ {
			col := vol[(x*v+y)*v : (x*v+y)*v+v]
			pix, _ := castRay(col, frame)
			img[y*v+x] = pix
		}
	}
	return img
}

// Verify implements core.App: every pixel is a pure function of the volume
// and frame, so the final image must match exactly.
func (a *Volrend) Verify(h *core.Heap) error {
	got := h.I32s(a.image, a.v*a.v)
	for i := range got {
		if got[i] != a.ref[i] {
			return fmt.Errorf("volrend: pixel %d = %d, want %d", i, got[i], a.ref[i])
		}
	}
	return nil
}
