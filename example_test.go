package dsmsim_test

import (
	"context"
	"fmt"
	"log"

	"dsmsim"
)

// ExampleStartApp runs the paper's LU benchmark on four simulated nodes
// under home-based lazy release consistency at page granularity.
func ExampleStartApp() {
	cfg := dsmsim.Config{Nodes: 4, BlockSize: 4096, Protocol: dsmsim.HLRC}
	res, err := dsmsim.StartApp(context.Background(), cfg, "lu", dsmsim.Small, dsmsim.WithVerify())
	if err != nil {
		log.Fatal(err)
	}
	// Runs are deterministic, so even fault counts are exact.
	fmt.Printf("%s under %s-%d on %d nodes: write faults = %d\n",
		res.App, res.Protocol, res.BlockSize, res.Nodes, res.Total.WriteFaults)
	// Output:
	// lu under hlrc-4096 on 4 nodes: write faults = 32
}

// ExampleStart runs a custom workload: every node increments a shared
// counter under a lock; the run is deterministic, so the output is exact.
// A verified Start gives the final image back to the pool, so a caller who
// reads the image runs unverified, verifies it and then inspects it.
func ExampleStart() {
	app := &counterApp{}
	res, err := dsmsim.Start(context.Background(), dsmsim.Config{
		Nodes: 8, BlockSize: 256, Protocol: dsmsim.SC,
	}, app)
	if err != nil {
		log.Fatal(err)
	}
	if err := app.Verify(res.Heap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final counter = %d after %d lock acquisitions\n",
		res.Heap.I64s(app.addr, 1)[0], res.Total.LockAcquires)
	// Output:
	// final counter = 80 after 80 lock acquisitions
}

type counterApp struct{ addr int }

func (a *counterApp) Info() dsmsim.AppInfo {
	return dsmsim.AppInfo{Name: "counter", HeapBytes: 8192}
}
func (a *counterApp) Setup(h *dsmsim.Heap) { a.addr = h.AllocI64s(1) }
func (a *counterApp) Run(c *dsmsim.Ctx) {
	for i := 0; i < 10; i++ {
		c.Lock(0)
		c.WriteI64(a.addr, c.ReadI64(a.addr)+1)
		c.Unlock(0)
	}
	c.Barrier()
}
func (a *counterApp) Verify(h *dsmsim.Heap) error {
	if got := h.I64s(a.addr, 1)[0]; got != 80 {
		return fmt.Errorf("counter = %d, want 80", got)
	}
	return nil
}
