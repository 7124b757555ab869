package apps

import (
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"dsmsim/internal/core"
	"dsmsim/internal/mem"
	"dsmsim/internal/sim"
)

// refOf returns where an instance's reference starts and an FNV-1a sum of
// its bytes; the instance must have been through Setup.
func refOf(t *testing.T, app core.App) (unsafe.Pointer, uint64) {
	t.Helper()
	switch a := app.(type) {
	case *LU:
		return sumOf(a.ref)
	case *Ocean:
		return sumOf(a.ref)
	case *FFT:
		return sumOf(a.ref)
	case *Barnes:
		return sumOf(a.ref)
	case *WaterNsq:
		return sumOf(a.ref)
	case *WaterSpatial:
		return sumOf(a.ref)
	case *Raytrace:
		return sumOf(a.ref)
	case *Volrend:
		return sumOf(a.ref)
	}
	t.Fatalf("%T keeps no sequential reference this test knows of", app)
	return nil, 0
}

func sumOf[T float64 | int32](ref []T) (unsafe.Pointer, uint64) {
	at := unsafe.Pointer(unsafe.SliceData(ref))
	h := fnv.New64a()
	h.Write(unsafe.Slice((*byte)(at), len(ref)*int(unsafe.Sizeof(ref[0]))))
	return at, h.Sum64()
}

// setupOnly runs an application's Setup and nothing else.
type setupOnly struct{ core.App }

func (setupOnly) Run(*core.Ctx) {}

func setUp(t *testing.T, app core.App) core.App {
	t.Helper()
	m, err := core.NewMachine(core.Config{Sequential: true, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(setupOnly{app})
	if err != nil {
		t.Fatal(err)
	}
	core.ReleaseImage(res)
	return app
}

// otherParams builds each registered application with a parameter set that
// is not its Small one.
var otherParams = map[string]func() core.App{
	"lu":               func() core.App { return NewLU(32, 8) },
	"fft":              func() core.App { return NewFFT(1 << 10) },
	"ocean-original":   func() core.App { return NewOcean(34, 4, false) },
	"ocean-rowwise":    func() core.App { return NewOcean(34, 4, true) },
	"water-nsquared":   func() core.App { return NewWaterNsq(32, 1) },
	"volrend-original": func() core.App { return NewVolrend(16, 2, false) },
	"volrend-rowwise":  func() core.App { return NewVolrend(16, 2, true) },
	"water-spatial":    func() core.App { return NewWaterSpatial(32, 1) },
	"raytrace":         func() core.App { return NewRaytrace(16, 16) },
	"barnes-original":  func() core.App { return NewBarnes(64, 1, BarnesOriginal) },
	"barnes-partree":   func() core.App { return NewBarnes(64, 1, BarnesPartree) },
	"barnes-spatial":   func() core.App { return NewBarnes(64, 1, BarnesSpatial) },
}

// TestSharedReferences: for every registered application, at its Small
// parameters and at one other set, once any instance has been set up a
// second one's Setup computes nothing and gets the very same slice; both
// verify full runs against it; and its contents are what they were before
// anybody ran or verified — the slices are shared between instances and
// between concurrent sweep workers on the strength of being read-only.
func TestSharedReferences(t *testing.T) {
	for _, e := range All() {
		other, ok := otherParams[e.Name]
		if !ok {
			t.Errorf("%s: no non-default parameter set in otherParams", e.Name)
			continue
		}
		for _, c := range []struct {
			params string
			mk     func() core.App
		}{{"small", func() core.App { return e.New(Small) }}, {"other", other}} {
			t.Run(e.Name+"/"+c.params, func(t *testing.T) {
				first := setUp(t, c.mk())
				at, sum := refOf(t, first)
				for i := 0; i < 2; i++ {
					computed, shared := RefStats()
					m, err := core.NewMachine(core.Config{Nodes: 4, BlockSize: 1024, Protocol: core.HLRC, Limit: 2000 * sim.Second})
					if err != nil {
						t.Fatal(err)
					}
					app := c.mk()
					if _, err := m.RunVerified(app); err != nil {
						t.Fatal(err)
					}
					if c2, s2 := RefStats(); c2 != computed || s2 != shared+1 {
						t.Errorf("instance %d: its Setup computed %d references and shared %d; want 0 and 1", i+2, c2-computed, s2-shared)
					}
					if p, _ := refOf(t, app); p != at {
						t.Errorf("instance %d verified against a reference of its own", i+2)
					}
				}
				if _, after := refOf(t, first); after != sum {
					t.Errorf("the shared reference changed under two runs and their Verify: %#x, was %#x", after, sum)
				}
			})
		}
	}
}

// TestReferenceKeyedByEveryParameter: two instances that differ in any one
// constructor parameter must not share a reference, whatever the reference
// happens to depend on today.
func TestReferenceKeyedByEveryParameter(t *testing.T) {
	for _, k := range []struct {
		name     string
		base     func() core.App
		variants []func() core.App
	}{
		{"lu", func() core.App { return NewLU(64, 8) }, []func() core.App{
			func() core.App { return NewLU(32, 8) },
			func() core.App { return NewLU(64, 16) },
		}},
		{"fft", func() core.App { return NewFFT(1 << 12) }, []func() core.App{
			func() core.App { return NewFFT(1 << 10) },
		}},
		{"ocean", func() core.App { return NewOcean(66, 8, true) }, []func() core.App{
			func() core.App { return NewOcean(34, 8, true) },
			func() core.App { return NewOcean(66, 4, true) },
			func() core.App { return NewOcean(66, 8, false) },
		}},
		{"water-nsquared", func() core.App { return NewWaterNsq(64, 2) }, []func() core.App{
			func() core.App { return NewWaterNsq(32, 2) },
			func() core.App { return NewWaterNsq(64, 1) },
		}},
		{"water-spatial", func() core.App { return NewWaterSpatial(64, 2) }, []func() core.App{
			func() core.App { return NewWaterSpatial(32, 2) },
			func() core.App { return NewWaterSpatial(64, 1) },
		}},
		{"raytrace", func() core.App { return NewRaytrace(32, 32) }, []func() core.App{
			func() core.App { return NewRaytrace(16, 32) },
			func() core.App { return NewRaytrace(32, 16) },
		}},
		{"volrend", func() core.App { return NewVolrend(32, 2, false) }, []func() core.App{
			func() core.App { return NewVolrend(16, 2, false) },
			func() core.App { return NewVolrend(32, 1, false) },
			func() core.App { return NewVolrend(32, 2, true) },
		}},
		{"barnes", func() core.App { return NewBarnes(128, 2, BarnesOriginal) }, []func() core.App{
			func() core.App { return NewBarnes(64, 2, BarnesOriginal) },
			func() core.App { return NewBarnes(128, 1, BarnesOriginal) },
			func() core.App { return NewBarnes(128, 2, BarnesPartree) },
			func() core.App { return NewBarnes(128, 2, BarnesSpatial) },
		}},
	} {
		base, _ := refOf(t, setUp(t, k.base()))
		if again, _ := refOf(t, setUp(t, k.base())); again != base {
			t.Errorf("%s: two instances with the same parameters got two references", k.name)
		}
		seen := map[unsafe.Pointer]int{base: -1}
		for i, mk := range k.variants {
			p, _ := refOf(t, setUp(t, mk()))
			if j, dup := seen[p]; dup {
				t.Errorf("%s: variant %d shares its reference with variant %d (-1 is the base)", k.name, i, j)
			}
			seen[p] = i
		}
	}
}

var probeKeys atomic.Int64

// TestSharedRefSingleFlight: however many callers ask for a key nobody has
// computed, one computes and all get its slice.
func TestSharedRefSingleFlight(t *testing.T) {
	var calls atomic.Int64
	key := refKey{"single-flight-probe", [2]int{int(probeKeys.Add(1))}} // the memo outlives a -count=N iteration
	got := make([][]float64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = sharedRef(key, func() []float64 {
				calls.Add(1)
				return []float64{1, 2, 3}
			})
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("%d callers computed, want 1", n)
	}
	for i, g := range got {
		if unsafe.SliceData(g) != unsafe.SliceData(got[0]) {
			t.Errorf("caller %d got a slice of its own", i)
		}
	}
}

// TestReferenceMemoFootprintAtPaperSize measures what the memo retains once
// every registered application has been set up at Paper size — the number
// DESIGN.md §6 quotes for "no eviction": 31.2 MB (fft 16.8, lu 8.4, ocean
// 2 × 2.1, the other eight 1.8 together), for 2.1 s of Setup that the second
// instance of each then does in 0.2 s. A new application whose reference
// is large enough to want eviction shows here.
func TestReferenceMemoFootprintAtPaperSize(t *testing.T) {
	if testing.Short() {
		t.Skip("Paper-size setups skipped in -short mode")
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	// The largest space and image the setups give back would wait in the
	// pools for the next run: dropped at restore, they are not counted.
	restore := mem.IsolatePools(nil)
	for _, e := range All() {
		setUp(t, e.New(Paper))
	}
	restore()
	retained := float64(int64(live())-int64(before)) / 1e6
	t.Logf("%.1f MB retained by the Paper-size references", retained)
	if retained > 40 {
		t.Errorf("the Paper-size references retain %.1f MB; the memo has no eviction on the strength of staying under 40", retained)
	}
}
