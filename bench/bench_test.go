package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"dsmsim"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCode: every workload and metric BENCHMARK.json
// names is one the code emits, and the other way round, within the
// contract's limits.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	ws := workloads()
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads, want 2..8", len(ws))
	}
	if len(f.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		checkName(w.Name)
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code has %q: %q", i, f.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	compare := func(kind string, file []jsonMetric, code []metricDef, limit int, bounded bool) {
		t.Helper()
		if len(code) < 1 || len(code) > limit {
			t.Errorf("%d %s metrics, want 1..%d", len(code), kind, limit)
		}
		if len(file) != len(code) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the code has %d", len(file), kind, len(code))
		}
		for i, def := range code {
			checkName(def.Name)
			if !unit.MatchString(def.Unit) {
				t.Errorf("%s: unit %q", def.Name, def.Unit)
			}
			if def.Better != "lower" && def.Better != "higher" {
				t.Errorf("%s: better = %q", def.Name, def.Better)
			}
			got := file[i]
			if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the code has %s/%s/%s",
					kind, i, got.Name, got.Unit, got.Better, def.Name, def.Unit, def.Better)
			}
			switch {
			case !bounded && got.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", def.Name)
			case bounded && (got.Bound == nil || *got.Bound != def.Bound):
				t.Errorf("%s: bound in BENCHMARK.json differs from %g", def.Name, def.Bound)
			case bounded && (def.Bound <= 0 || def.Bound > 0.25):
				t.Errorf("%s: bound %g outside (0, 0.25]", def.Name, def.Bound)
			}
		}
	}
	compare("end-to-end", f.EndToEnd, endToEnd, 16, true)
	compare("per-layer", f.PerLayer, perLayer(), 128, false)

	var setup metricDef
	for _, def := range endToEnd {
		if def.Name == "setup_s" {
			setup = def
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s = %+v", setup)
	}
	for _, def := range endToEnd {
		if def.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", def.Name)
		}
	}
}

// TestSelfTime: a span's self time is its duration minus its children's,
// summed per name over one tree and no other.
func TestSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: spanIteration, Start: 0, End: 100, Parent: -1, Run: -1}, // 0
		{Name: spanRun, Start: 5, End: 45, Parent: 0},                  // 1
		{Name: spanCoreRun, Start: 10, End: 40, Parent: 1},             // 2
		{Name: spanAppsSetup, Start: 12, End: 20, Parent: 2},           // 3
		{Name: spanRun, Start: 50, End: 95, Parent: 0, Run: 1},         // 4
		{Name: spanCoreRun, Start: 55, End: 90, Parent: 4, Run: 1},     // 5
		{Name: spanIteration, Start: 100, End: 130, Parent: -1},        // 6: another tree
		{Name: spanRun, Start: 101, End: 129, Parent: 6},               // 7
	}}
	got := r.selfTimes(0)
	want := map[string]int64{
		spanIteration: 100 - 40 - 45,
		spanRun:       (40 - 30) + (45 - 35),
		spanCoreRun:   (30 - 8) + 35,
		spanAppsSetup: 8,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes(0) = %v, want %v", got, want)
	}
	var total int64
	for _, ns := range got {
		total += ns
	}
	if total != r.duration(0) {
		t.Errorf("self times sum to %d, the root lasted %d", total, r.duration(0))
	}
	if got := r.selfTimes(6); got[spanIteration] != 2 || got[spanRun] != 28 {
		t.Errorf("selfTimes(6) = %v", got)
	}

	var off *recorder
	off.end(off.begin(spanRun, -1, -1)) // a nil recorder records nothing
}

// TestJudge: the bound logic of -compare.
func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_ms_p50", Better: "lower", Bound: 0.08}
	higher := metricDef{Name: "sim_msgs_per_s", Better: "higher", Bound: 0.08}
	tight := func(v float64) value { return value{Value: v, Samples: []float64{v * 0.99, v, v, v * 1.01}} }
	wide := func(v float64) value { return value{Value: v, Samples: []float64{v * 0.8, v * 0.9, v * 1.1, v * 1.2}} }
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b value
		want string
	}{
		{"same", lower, tight(100), tight(100), verdictUnchanged},
		{"within bound", lower, tight(100), tight(107), verdictUnchanged},
		{"slower", lower, tight(100), tight(109), verdictWorse},
		{"faster", lower, tight(100), tight(91), verdictBetter},
		{"less throughput", higher, tight(100), tight(91), verdictWorse},
		{"more throughput", higher, tight(100), tight(109), verdictBetter},
		{"noisy and close", lower, wide(100), tight(101), verdictUnresolved},
		{"noisy but far", lower, wide(100), tight(150), verdictWorse},
		{"no samples", lower, value{Value: 100}, value{Value: 101}, verdictUnchanged},
	} {
		if _, _, got := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{6: 50, 19: 50, 20: 50, 25: 60, 100: 90} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

// TestTinyRun measures one workload twice with tiny iteration counts and
// runs the probes once: both measurements yield identical model counts,
// no run fails, no probe self-check fails, nothing drifts from
// expected.json, and the metric names emitted are exactly the catalog's.
func TestTinyRun(t *testing.T) {
	ctx := context.Background()
	w, ok := findWorkload("page4k")
	if !ok {
		t.Fatal("no page4k workload")
	}
	o := measureOpts{Seed: expectedSeed, Iters: 1, Setups: 1, Traced: 1}
	var ms [2]*measurement
	for i := range ms {
		m, err := measure(ctx, w, o, newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		if m.failed != 0 || m.attempted != 3*len(m.plan.runs) {
			t.Fatalf("%d of %d runs failed: %v", m.failed, m.attempted, m.failures)
		}
		if m.drift != 0 {
			t.Errorf("%d runs drifted from expected.json; if the model changed on purpose, run `go run ./bench -record`", m.drift)
		}
		ms[i] = m
	}
	if ms[0].ref.model != ms[1].ref.model {
		t.Errorf("model counts differ between two measurements:\n%+v\n%+v", ms[0].ref.model, ms[1].ref.model)
	}

	probes := runProbes(ctx, expectedSeed, 1)
	for _, f := range probes.failures {
		t.Errorf("probe self-check: %s", f)
	}
	emitted := map[string]bool{}
	for name := range probes.vals {
		emitted[name] = true
	}

	// The two workload-specific measurements, on run lists cut down to
	// one application and one protocol.
	sp := newSweepPlan(expectedSeed, []string{dsmsim.HLRC})
	sp.spec.Apps, sp.spec.Granularities = sweepApps[:1], []int{4096}
	sp.runs = len(sp.grid)
	variants, err := sweepVariants(ctx, newRecorder(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if variants["sweep.forked_runs"] != float64(sp.runs) || variants["sweep.prefixes"] != 1 {
		t.Errorf("sweep variants = %v, want %d forked runs from 1 prefix", variants, sp.runs)
	}
	costs, err := observerCosts(ctx, func(tune func(*dsmsim.Config)) *plan {
		return matrix([]string{"lu"}, []string{dsmsim.SC}, 16, 256, tune)
	})
	if err != nil {
		t.Fatal(err)
	}
	if costs["trace.on_mallocs_x"] <= 1 {
		t.Errorf("tracing on made %gx the mallocs of tracing off", costs["trace.on_mallocs_x"])
	}
	ms[0].extra = variants
	for name, v := range costs {
		ms[0].extra[name] = v
	}

	for name := range ms[0].workloadLayer(probes) {
		if emitted[name] {
			t.Errorf("%s comes from both a probe and the workload", name)
		}
		emitted[name] = true
	}
	for _, def := range perLayer() {
		if !emitted[def.Name] {
			t.Errorf("per-layer metric %s is in the catalog but not emitted", def.Name)
		}
		delete(emitted, def.Name)
	}
	for name := range emitted {
		t.Errorf("per-layer metric %s is emitted but not in the catalog", name)
	}
	e2e := ms[0].endToEnd()
	for _, def := range endToEnd {
		if v, ok := e2e[def.Name]; !ok || v.Value <= 0 || v.Unit != def.Unit {
			t.Errorf("end-to-end metric %s = %+v", def.Name, v)
		}
	}
	if len(e2e) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics emitted, %d in the catalog", len(e2e), len(endToEnd))
	}
}
