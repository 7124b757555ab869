// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the simulator's design choices (DESIGN.md §6).
//
// BenchmarkExperiment runs each harness experiment end to end as a
// sub-benchmark named after it (dsmbench -list). By default the reduced
// problem sizes are used so `go test -bench=.` finishes quickly; pass
// -dsm.paper to sweep the paper's Table 1 sizes (minutes; -dsm.show prints
// the tables):
//
//	go test -bench='Experiment/fig1$' -benchtime=1x -dsm.paper
package dsmsim_test

import (
	"flag"
	"fmt"
	"io"
	"os"
	"testing"

	"dsmsim"
	"dsmsim/internal/apps"
	"dsmsim/internal/harness"
)

var (
	paperSize  = flag.Bool("dsm.paper", false, "run benchmarks at the paper's problem sizes")
	benchNodes = flag.Int("dsm.nodes", 16, "cluster size for benchmarks")
	showTables = flag.Bool("dsm.show", false, "print the regenerated tables to stdout")
)

func benchOpts() harness.Options {
	opts := harness.Options{Nodes: *benchNodes, Out: io.Discard}
	opts.Size = apps.Small
	if *paperSize {
		opts.Size = apps.Paper
	}
	if *showTables {
		opts.Out = os.Stdout
	}
	return opts
}

// BenchmarkExperiment regenerates every harness experiment, one
// sub-benchmark per registry entry: a fresh runner and one render per
// iteration.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range harness.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := harness.New(benchOpts())
				if err != nil {
					b.Fatal(err)
				}
				if err := e.Run(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProtocolGranularity reports simulated speedup for each point of
// the evaluation space on one representative regular (LU) and one
// irregular (Water-Spatial) application.
func BenchmarkProtocolGranularity(b *testing.B) {
	size := apps.SizeClass(apps.Small)
	if *paperSize {
		size = apps.Paper
	}
	for _, app := range []string{"lu", "water-spatial"} {
		for _, proto := range dsmsim.Protocols {
			for _, g := range dsmsim.Granularities {
				name := fmt.Sprintf("%s/%s/%d", app, proto, g)
				b.Run(name, func(b *testing.B) {
					var speedup float64
					for i := 0; i < b.N; i++ {
						seqM, _ := dsmsim.NewMachine(dsmsim.Config{Sequential: true, BlockSize: 4096})
						sa, _ := dsmsim.NewApp(app, size)
						seq, err := seqM.Run(sa)
						if err != nil {
							b.Fatal(err)
						}
						m, _ := dsmsim.NewMachine(dsmsim.Config{
							Nodes: *benchNodes, BlockSize: g, Protocol: proto,
						})
						pa, _ := dsmsim.NewApp(app, size)
						res, err := m.Run(pa)
						if err != nil {
							b.Fatal(err)
						}
						speedup = float64(seq.Time) / float64(res.Time)
					}
					b.ReportMetric(speedup, "speedup")
				})
			}
		}
	}
}

// BenchmarkAblationHomes compares first-touch home migration against
// static round-robin homes (DESIGN.md design decision 1) on HLRC at page
// granularity, where home placement matters most.
func BenchmarkAblationHomes(b *testing.B) {
	size := apps.SizeClass(apps.Small)
	if *paperSize {
		size = apps.Paper
	}
	for _, static := range []bool{false, true} {
		name := "first-touch"
		if static {
			name = "static"
		}
		b.Run(name, func(b *testing.B) {
			var t dsmsim.Time
			for i := 0; i < b.N; i++ {
				m, _ := dsmsim.NewMachine(dsmsim.Config{
					Nodes: *benchNodes, BlockSize: 4096, Protocol: dsmsim.HLRC,
					StaticHomes: static,
				})
				app, _ := dsmsim.NewApp("ocean-rowwise", size)
				res, err := m.Run(app)
				if err != nil {
					b.Fatal(err)
				}
				t = res.Time
			}
			b.ReportMetric(float64(t)/1e6, "simulated-ms")
		})
	}
}

// BenchmarkAblationNotify compares polling against interrupts (design
// decision 3; the paper's §5.4) on LU, the application most sensitive to
// the notification mechanism.
func BenchmarkAblationNotify(b *testing.B) {
	size := apps.SizeClass(apps.Small)
	if *paperSize {
		size = apps.Paper
	}
	for _, notify := range []dsmsim.Notify{dsmsim.Polling, dsmsim.Interrupt} {
		b.Run(notify.String(), func(b *testing.B) {
			var t dsmsim.Time
			for i := 0; i < b.N; i++ {
				m, _ := dsmsim.NewMachine(dsmsim.Config{
					Nodes: *benchNodes, BlockSize: 4096, Protocol: dsmsim.SC,
					Notify: notify,
				})
				app, _ := dsmsim.NewApp("lu", size)
				res, err := m.Run(app)
				if err != nil {
					b.Fatal(err)
				}
				t = res.Time
			}
			b.ReportMetric(float64(t)/1e6, "simulated-ms")
		})
	}
}

// BenchmarkEngineOverhead measures the raw simulator event throughput —
// the substrate's wall-clock cost per simulated coherence event.
func BenchmarkEngineOverhead(b *testing.B) {
	app, _ := dsmsim.NewApp("lu", apps.Small)
	_ = app
	for i := 0; i < b.N; i++ {
		m, _ := dsmsim.NewMachine(dsmsim.Config{Nodes: 8, BlockSize: 256, Protocol: dsmsim.SC})
		a, _ := dsmsim.NewApp("lu", apps.Small)
		if _, err := m.Run(a); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulator primitive microbenchmarks -----------------------------------
// These measure the wall-clock cost of the simulator itself (not simulated
// time): one remote fault round trip, one lock handoff, one barrier episode.

type primApp struct {
	setup func(h *dsmsim.Heap)
	run   func(c *dsmsim.Ctx)
}

func (a *primApp) Info() dsmsim.AppInfo {
	return dsmsim.AppInfo{Name: "prim", HeapBytes: 1 << 20}
}
func (a *primApp) Setup(h *dsmsim.Heap) {
	if a.setup != nil {
		a.setup(h)
	}
}
func (a *primApp) Run(c *dsmsim.Ctx)           { a.run(c) }
func (a *primApp) Verify(h *dsmsim.Heap) error { return nil }

func benchPrim(b *testing.B, protocol string, iters int, run func(c *dsmsim.Ctx, iters int)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := dsmsim.NewMachine(dsmsim.Config{Nodes: 2, BlockSize: 256, Protocol: protocol})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(&primApp{run: func(c *dsmsim.Ctx) { run(c, iters) }}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters), "wall-ns/op")
}

// BenchmarkFaultRoundTrip: node 1 repeatedly invalidates and refetches one
// block owned by node 0 — a full SC coherence round trip per iteration.
func BenchmarkFaultRoundTrip(b *testing.B) {
	const iters = 200
	benchPrim(b, dsmsim.SC, iters, func(c *dsmsim.Ctx, n int) {
		if c.ID() == 0 {
			for i := 0; i < n; i++ {
				c.WriteI64(0, int64(i))
			}
		} else {
			for i := 0; i < n; i++ {
				_ = c.ReadI64(0)
			}
		}
		c.Barrier()
	})
}

// BenchmarkLockHandoff: two nodes alternate on one lock.
func BenchmarkLockHandoff(b *testing.B) {
	const iters = 200
	benchPrim(b, dsmsim.HLRC, iters, func(c *dsmsim.Ctx, n int) {
		for i := 0; i < n; i++ {
			c.Lock(0)
			c.Unlock(0)
		}
		c.Barrier()
	})
}

// BenchmarkBarrierEpisode: repeated global barriers.
func BenchmarkBarrierEpisode(b *testing.B) {
	const iters = 200
	benchPrim(b, dsmsim.HLRC, iters, func(c *dsmsim.Ctx, n int) {
		for i := 0; i < n; i++ {
			c.Barrier()
		}
	})
}
