package apps

import (
	"fmt"
	"sort"
	"testing"

	"dsmsim/internal/core"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
)

// tqApp exercises the task-queue substrate directly: tasks are dealt
// unevenly so idle nodes must steal, and every task must execute exactly
// once.
type tqApp struct {
	tq    *taskQueues
	total int
	done  []int32 // execution count per task (host-side check)
}

func (a *tqApp) Info() core.AppInfo {
	return core.AppInfo{Name: "tq", HeapBytes: 16*(2+512)*8 + 65536}
}

func (a *tqApp) Setup(h *core.Heap) {
	a.tq = newTaskQueues(h, 16, 512, 100)
	a.done = make([]int32, a.total)
	// Deal ALL tasks to queue 0: maximal stealing pressure.
	tasks := make([]int64, a.total)
	for i := range tasks {
		tasks[i] = int64(i)
	}
	a.tq.masterFill(h, 0, tasks)
}

func (a *tqApp) Run(c *core.Ctx) {
	me := c.ID()
	for {
		task, ok := a.tq.pop(c, me%16)
		if !ok {
			break
		}
		a.done[task]++
		c.Compute(50 * sim.Microsecond)
	}
	c.Barrier()
}

func (a *tqApp) Verify(h *core.Heap) error {
	for i, n := range a.done {
		if n != 1 {
			return fmt.Errorf("task %d executed %d times", i, n)
		}
	}
	return nil
}

func TestTaskQueueExactlyOnceWithStealing(t *testing.T) {
	for _, p := range proto.PaperNames() {
		p := p
		t.Run(p, func(t *testing.T) {
			app := &tqApp{total: 300}
			m, err := core.NewMachine(core.Config{
				Nodes: 8, BlockSize: 64, Protocol: p, Limit: 100 * sim.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunVerified(app); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTaskQueueOverflowPanics guards the capacity contract.
func TestTaskQueueOverflowPanics(t *testing.T) {
	app := &testApp{
		name: "tq-overflow", heap: 1 << 20,
		setup: func(h *core.Heap) {
			tq := newTaskQueues(h, 2, 4, 100)
			defer func() {
				if recover() == nil {
					t.Error("masterFill overflow did not panic")
				}
			}()
			tq.masterFill(h, 0, make([]int64, 10))
		},
		run:    func(c *core.Ctx) { c.Barrier() },
		verify: func(h *core.Heap) error { return nil },
	}
	m, _ := core.NewMachine(core.Config{Nodes: 2, BlockSize: 4096, Protocol: core.SC, Limit: 10 * sim.Second})
	if _, err := m.RunVerified(app); err != nil {
		t.Fatal(err)
	}
}

// testApp for this package's own tests (apps_test.go defines runMatrix
// against registered apps; this one builds ad-hoc workloads).
type testApp struct {
	name   string
	heap   int
	setup  func(h *core.Heap)
	run    func(c *core.Ctx)
	verify func(h *core.Heap) error
}

func (a *testApp) Info() core.AppInfo        { return core.AppInfo{Name: a.name, HeapBytes: a.heap} }
func (a *testApp) Setup(h *core.Heap)        { a.setup(h) }
func (a *testApp) Run(c *core.Ctx)           { a.run(c) }
func (a *testApp) Verify(h *core.Heap) error { return a.verify(h) }

// TestNeighborCellsShape sanity-checks Water-Spatial's neighbourhood.
func TestNeighborCellsShape(t *testing.T) {
	a := NewWaterSpatial(64, 1)
	s := a.side
	var cornerBuf, centerBuf [27]int
	corner := a.neighborCells(0, &cornerBuf)
	if len(corner) != 8 {
		t.Errorf("corner neighbourhood = %d cells, want 8", len(corner))
	}
	centerCell := ((s/2)*s+(s/2))*s + s/2
	center := a.neighborCells(centerCell, &centerBuf)
	if len(center) != 27 {
		t.Errorf("interior neighbourhood = %d cells, want 27", len(center))
	}
	sorted := append([]int(nil), center...)
	sort.Ints(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			t.Fatal("duplicate neighbour cell")
		}
	}
}

// TestProcBoxFactorization checks the 3-D processor grid covers p exactly.
func TestProcBoxFactorization(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8, 12, 16} {
		x, y, z := procBox(p)
		if x*y*z != p {
			t.Errorf("procBox(%d) = %d×%d×%d", p, x, y, z)
		}
	}
}
