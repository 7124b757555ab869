package harness

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
	"dsmsim/internal/sweep"
)

// paperRows is the run table of the paper matrix: `make verify-paper`
// records `dsmrun -exp all -size paper -nodes 16` once and writes this file
// as `dsmrun -project run` of that record.
const paperRows = "testdata/paper16.csv"

// rowExperiments are the experiments that render from run-table rows and
// the sequential baselines alone. The others read fields the run table has
// no column for (table2, memory, fourway, breakdown, phases) or read points
// with Settings, which have no rows (software, degradation, sharing,
// critpath).
var rowExperiments = []string{
	"table1", "fig1", "table3", "table4", "table5", "table6", "table7", "table8", "table9", "table10",
	"table11", "table12", "table13", "table14", "table15", "table16", "table17", "fig2",
	"scaling", "delayed", "bigblocks",
}

// driftPoints are the paper-size points the paper test simulates again to
// see that the code still writes paperRows' rows: every registered
// protocol, block size and notification mode, on three applications cheap
// to simulate at paper size (about a second in all).
var driftPoints = []sweep.Key{
	{App: "ocean-rowwise", Protocol: "sc", Block: 4096, Nodes: 16},
	{App: "ocean-rowwise", Protocol: "dc", Block: 1024, Nodes: 16},
	{App: "ocean-rowwise", Protocol: "tlc", Block: 4096, Nodes: 16},
	{App: "volrend-original", Protocol: "swlrc", Block: 1024, Nodes: 16},
	{App: "volrend-original", Protocol: "sc", Block: 64, Nodes: 16},
	{App: "volrend-rowwise", Protocol: "hlrc", Block: 64, Nodes: 16},
	{App: "volrend-rowwise", Protocol: "swlrc", Block: 256, Nodes: 16},
	{App: "lu", Protocol: "hlrc", Block: 4096, Notify: network.Interrupt, Nodes: 16},
}

// rowRecords rebuilds a run table (sweep.Project's "run") as records
// declared decl: each row's point and the counts its columns carry. The
// latency columns and every field the table has no column for stay zero.
func rowRecords(t testing.TB, table []byte, decl sweep.Declaration) []sweep.Record {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(table)).ReadAll()
	if err != nil || len(rows) == 0 {
		t.Fatalf("run table: %d rows, %v", len(rows), err)
	}
	var recs []sweep.Record
	for i, row := range rows[1:] {
		col := func(name string) string { return row[slices.Index(rows[0], name)] }
		num := func(name string) int64 {
			v, err := strconv.ParseInt(col(name), 10, 64)
			if err != nil {
				t.Fatalf("run table row %d: %v", i+1, err)
			}
			return v
		}
		notify := network.Polling
		if col("notify") == network.Interrupt.String() {
			notify = network.Interrupt
		}
		res := &core.Result{App: col("app"), Protocol: col("protocol"), BlockSize: int(num("block")),
			Notify: notify, Nodes: int(num("nodes"))}
		for _, c := range []struct {
			name string
			v    *int64
		}{
			{"time_ns", (*int64)(&res.Time)}, {"read_faults", &res.Total.ReadFaults},
			{"write_faults", &res.Total.WriteFaults}, {"invalidations", &res.Total.Invalidations},
			{"twins", &res.Total.TwinsCreated}, {"diffs", &res.Total.DiffsCreated},
			{"write_notices", &res.Total.WriteNoticesSent}, {"lock_acquires", &res.Total.LockAcquires},
			{"barrier_entries", &res.Total.BarrierEntries}, {"net_msgs", &res.NetMsgs},
			{"net_bytes", &res.NetBytes}, {"retransmits", &res.Retransmits},
			{"wire_drops", &res.WireDrops}, {"dup_frames", &res.Duplicates},
		} {
			*c.v = num(c.name)
		}
		k := sweep.Key{App: res.App, Protocol: res.Protocol, Block: res.BlockSize, Notify: notify, Nodes: res.Nodes}
		recs = append(recs, sweep.Record{V: sweep.RecordVersion, Declaration: decl, Point: k, Result: res})
	}
	return recs
}

// baselines returns the sequential baselines among recs.
func baselines(recs []sweep.Record) []sweep.Record {
	var seq []sweep.Record
	for _, r := range recs {
		if r.Point.Sequential {
			seq = append(seq, r)
		}
	}
	return seq
}

// rowExps returns rowExperiments.
func rowExps(t testing.TB) []Experiment {
	var exps []Experiment
	for _, name := range rowExperiments {
		exps = append(exps, get(t, name))
	}
	return exps
}

// TestRowsRenderLikeRecords: every experiment the paper test renders from
// run-table rows and baselines renders the bytes it renders from the full
// records, at Small size on 4 nodes — so a renderer that starts reading a
// field the run table lacks fails here, not at the next paper re-record.
func TestRowsRenderLikeRecords(t *testing.T) {
	exps := rowExps(t)
	recs := runRecords(t, small, PointsFor(small, 4, exps)...)
	var want, table, got bytes.Buffer
	if err := Render(&want, recs, exps); err != nil {
		t.Fatal(err)
	}
	if err := sweep.Project(&table, "run", recs); err != nil {
		t.Fatal(err)
	}
	rebuilt := append(baselines(recs), rowRecords(t, table.Bytes(), recs[0].Declaration)...)
	if err := Render(&got, rebuilt, exps); err != nil {
		t.Fatalf("from run-table rows: %v", err)
	}
	if got.String() != want.String() {
		t.Errorf("from run-table rows:\n%s\nfrom the records:\n%s", got.String(), want.String())
	}
}

// paperView simulates the twelve paper-size baselines and driftPoints in
// one sweep, checks that every drift point's row is a line of paperRows,
// and returns a view of the baselines and paperRows' rows.
func paperView(t *testing.T) *Runner {
	t.Helper()
	table, err := os.ReadFile(paperRows)
	if err != nil {
		t.Fatal(err)
	}
	keys := slices.Clone(driftPoints)
	for _, app := range apps.Names() {
		keys = append(keys, sweep.Seq(app))
	}
	recs := runRecords(t, sweep.Options{Size: apps.Paper}, keys...)
	var drift bytes.Buffer
	if err := sweep.Project(&drift, "run", recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(table), "\n")
	for i, row := range strings.SplitAfter(drift.String(), "\n") {
		if row != "" && !slices.Contains(lines, row) {
			point := "header"
			if i > 0 {
				point = driftPoints[i-1].String()
			}
			t.Errorf("%s is not a line of %s; run `make verify-paper` and commit the diff:\n%s", point, paperRows, row)
		}
	}
	return view(t, io.Discard, append(baselines(recs), rowRecords(t, table, recs[0].Declaration)...))
}

// tolerance is how far a measurement may sit from the paper's value, or
// from the ends of the paper's range, for the claim to hold. A bound or an
// ordering holds as stated.
const tolerance = 0.2

func near(got, paper float64) bool { return math.Abs(got-paper) <= tolerance*paper }

func inRange(got, lo, hi float64) bool { return got >= lo*(1-tolerance) && got <= hi*(1+tolerance) }

// claim is one statement of the paper's evaluation checked against the
// paper matrix: where the paper makes it, its wording, the paper's value,
// and measure, which reads the measured value off a view of the matrix and
// says whether the claim holds. A claim that does not hold here carries the
// reason as its deviation.
type claim struct {
	section, what, paper string
	measure              func(r *Runner) (measured string, holds bool)
	deviation            string
}

// sp is the speedup of app under protocol p at block size g on the view's
// cluster, polling.
func sp(r *Runner, app, p string, g int) float64 {
	return r.speedup(sweep.Key{App: app, Protocol: p, Block: g, Nodes: r.nodes})
}

// best is app's highest speedup over protos × blocks and where it is.
func best(r *Runner, app string, protos []string, blocks []int) (float64, string) {
	b, at := 0.0, ""
	for _, p := range protos {
		for _, g := range blocks {
			if s := sp(r, app, p, g); s > b {
				b, at = s, fmt.Sprintf("%s-%d", p, g)
			}
		}
	}
	return b, at
}

// run is the run of app under protocol p at block size g on the view's
// cluster, polling.
func run(r *Runner, app, p string, g int) *core.Result {
	return r.result(sweep.Key{App: app, Protocol: p, Block: g, Nodes: r.nodes})
}

// fewerWrites is how many times fewer write faults HLRC takes than SC on
// app at block size g.
func fewerWrites(r *Runner, app string, g int) float64 {
	return float64(run(r, app, core.SC, g).Total.WriteFaults) / float64(run(r, app, core.HLRC, g).Total.WriteFaults)
}

// worksWell counts the applications whose best speedup under protos at
// blocks is at least 80% of their best anywhere in Figure 1.
func worksWell(r *Runner, protos []string, blocks []int) int {
	n := 0
	for _, app := range apps.Names() {
		all, _ := best(r, app, proto.PaperNames(), core.Granularities)
		if b, _ := best(r, app, protos, blocks); b >= 0.8*all {
			n++
		}
	}
	return n
}

// show returns what run renders from r.
func show(r *Runner, run func(*Runner) error) string {
	var b bytes.Buffer
	out := r.out
	r.out = &b
	defer func() { r.out = out }()
	if err := run(r); err != nil {
		panic(err)
	}
	return b.String()
}

// cell reads one number off a render of experiment exp: the one in row's
// line under column's heading.
func cell(r *Runner, exp, row, column string) float64 {
	exps, err := Select(exp)
	if err != nil {
		panic(err)
	}
	lines := strings.Split(show(r, exps[0].Run), "\n")
	heads := strings.Fields(lines[1])
	for _, line := range lines[2:] {
		if f := strings.Fields(line); len(f) == len(heads) && f[0] == row {
			v, err := strconv.ParseFloat(f[slices.Index(heads, column)], 64)
			if err != nil {
				panic(err)
			}
			return v
		}
	}
	panic(fmt.Sprintf("%s has no row %s", exp, row))
}

// bestCell is the highest harmonic mean in protos' rows of a render of
// Table 16 or 17 (exp) outside the g_best column, and where it is.
func bestCell(r *Runner, exp string, protos ...string) (float64, string) {
	b, at := 0.0, ""
	for _, p := range protos {
		for _, g := range core.Granularities {
			if v := cell(r, exp, p, blockLabel(g)); v > b {
				b, at = v, p+"-"+blockLabel(g)
			}
		}
	}
	return b, at
}

// seqTime is Table 1's claim for one benchmark: its sequential time is the
// paper's, times the share of the paper's work the reproduction runs.
func seqTime(app, paper string, secs, share float64, deviation string) claim {
	return claim{section: "Table 1", what: app + " sequential time", paper: paper, deviation: deviation,
		measure: func(r *Runner) (string, bool) {
			got := float64(r.result(sweep.Seq(app)).Time) / float64(sim.Second)
			return fmt.Sprintf("%.3f s (%+.1f%%)", got, 100*(got/(secs*share)-1)), near(got, secs*share)
		}}
}

// barnesDeviation is the reason of two deviations.
const barnesDeviation = "Barnes-Original's fault counts run higher than the paper's under every protocol: the " +
	"clustered two-blob particle distribution and the per-cell-lock tree build make more coherence activity. So SC " +
	"at 64 B already moves much data, and relaxation saves a smaller share of the read misses. Every ordering holds."

// paperClaims are the claims of the paper's evaluation the paper matrix
// checks, section by section: every paper-vs-measured row of EXPERIMENTS.md
// and every shape target of DESIGN.md §5.
var paperClaims = []claim{
	seqTime("lu", "73.410 s", 73.41, 1, ""),
	seqTime("fft", "27.257 s", 27.257, 1, ""),
	seqTime("ocean-original", "37.430 s × 60/160 iterations", 37.43, 60.0/160, ""),
	seqTime("water-nsquared", "575.283 s", 575.283, 1, ""),
	seqTime("volrend-original", "4.493 s", 4.493, 1,
		"The scene is synthetic (the original dataset is not redistributable), and it costs more to render."),
	seqTime("water-spatial", "898.454 s", 898.454, 1, ""),
	seqTime("raytrace", "343.760 s", 343.76, 1, ""),
	seqTime("barnes-original", "33.787 s", 33.787, 1, ""),

	{section: "Figure 1", what: "SC at fine granularity (64 or 256 B) works well — at least 80% of the application's best speedup — for most applications",
		paper: "7 of 12", measure: func(r *Runner) (string, bool) {
			n := worksWell(r, []string{core.SC}, []int{64, 256})
			return fmt.Sprintf("%d of 12", n), near(float64(n), 7)
		}},
	{section: "Figure 1", what: "HLRC at page granularity (4096 B) works well for most applications",
		paper: "8 of 12", measure: func(r *Runner) (string, bool) {
			n := worksWell(r, []string{core.HLRC}, []int{4096})
			return fmt.Sprintf("%d of 12", n), near(float64(n), 8)
		}},
	{section: "Figure 1", what: "SW-LRC falls between SC and HLRC at 4096 B for most applications",
		paper: "between", measure: func(r *Runner) (string, bool) {
			n := 0
			for _, app := range apps.Names() {
				sw := sp(r, app, core.SWLRC, 4096)
				if sp(r, app, core.SC, 4096) <= sw && sw <= sp(r, app, core.HLRC, 4096) {
					n++
				}
			}
			return fmt.Sprintf("%d of 12", n), n > 6
		}},
	{section: "Figure 1", what: "HLRC at least matches SW-LRC at 4096 B", paper: "every application",
		measure: func(r *Runner) (string, bool) {
			var not []string
			for _, app := range apps.Names() {
				if sp(r, app, core.HLRC, 4096) < sp(r, app, core.SWLRC, 4096) {
					not = append(not, app)
				}
			}
			return fmt.Sprintf("%d of 12 (not %s)", 12-len(not), strings.Join(not, ", ")), len(not) == 0
		},
		deviation: "Ocean-Original is the exception: at 4096 B HLRC takes more read and write faults than SW-LRC " +
			"there (Table 5). Not analysed further."},
	{section: "Figure 1", what: "Ocean-Original: every protocol performs poorly", paper: "best 2.7",
		measure: func(r *Runner) (string, bool) {
			b, at := best(r, "ocean-original", proto.PaperNames(), core.Granularities)
			return fmt.Sprintf("best %.2f (%s)", b, at), near(b, 2.7)
		}},
	{section: "Figure 1", what: "Ocean-Rowwise: restructuring recovers the speedup", paper: "best 10.0 at hlrc-1024",
		measure: func(r *Runner) (string, bool) {
			b, at := best(r, "ocean-rowwise", proto.PaperNames(), core.Granularities)
			return fmt.Sprintf("best %.2f at %s", b, at), near(b, 10) && at == "hlrc-1024"
		}},
	{section: "Figure 1", what: "Barnes-Original: SC is best and the LRC protocols never recover", paper: "SC best",
		measure: func(r *Runner) (string, bool) {
			sc, at := best(r, "barnes-original", []string{core.SC}, core.Granularities)
			lrc, _ := best(r, "barnes-original", []string{core.SWLRC, core.HLRC}, core.Granularities)
			return fmt.Sprintf("%s %.2f; LRC best %.2f", at, sc, lrc), sc > lrc
		}},
	{section: "Figure 1", what: "Barnes-Spatial over Barnes-Original at HLRC-4096", paper: "5×",
		measure: func(r *Runner) (string, bool) {
			x := sp(r, "barnes-spatial", core.HLRC, 4096) / sp(r, "barnes-original", core.HLRC, 4096)
			return fmt.Sprintf("%.1f×", x), near(x, 5)
		}},
	{section: "Figure 1", what: "Volrend-Original: HLRC-4096 over SC-4096", paper: "2–4×",
		measure: func(r *Runner) (string, bool) {
			x := sp(r, "volrend-original", core.HLRC, 4096) / sp(r, "volrend-original", core.SC, 4096)
			return fmt.Sprintf("%.1f×", x), inRange(x, 2, 4)
		}},
	{section: "Figure 1", what: "Volrend-Rowwise: SC collapses from 1 KB on", paper: "declines",
		measure: func(r *Runner) (string, bool) {
			a, b, c := sp(r, "volrend-rowwise", core.SC, 256), sp(r, "volrend-rowwise", core.SC, 1024), sp(r, "volrend-rowwise", core.SC, 4096)
			return fmt.Sprintf("%.2f → %.2f → %.2f", a, b, c), a > b && b > c
		}},
	{section: "Figure 1", what: "Water-Spatial: SC and SW-LRC fall at 4096 B, HLRC holds", paper: "falls, falls, flat",
		measure: func(r *Runner) (string, bool) {
			const app = "water-spatial"
			sc64, sc4k := sp(r, app, core.SC, 64), sp(r, app, core.SC, 4096)
			sw1k, sw4k := sp(r, app, core.SWLRC, 1024), sp(r, app, core.SWLRC, 4096)
			hl64, hl4k := sp(r, app, core.HLRC, 64), sp(r, app, core.HLRC, 4096)
			return fmt.Sprintf("sc %.2f → %.2f, swlrc %.2f → %.2f, hlrc %.2f → %.2f", sc64, sc4k, sw1k, sw4k, hl64, hl4k),
				sc4k < sc64 && sw4k < sw1k && near(hl4k, hl64)
		}},
	{section: "Figure 1", what: "LU and Water-Nsquared: every protocol does well and improves with granularity", paper: "≥ 8",
		measure: func(r *Runner) (string, bool) {
			holds, low := true, math.Inf(1)
			for _, app := range []string{"lu", "water-nsquared"} {
				for _, p := range proto.PaperNames() {
					b, _ := best(r, app, []string{p}, core.Granularities)
					low = min(low, b)
					holds = holds && b >= 8 && sp(r, app, p, 4096) > sp(r, app, p, 64)
				}
			}
			return fmt.Sprintf("lowest best %.2f", low), holds
		}},
	{section: "Figure 1", what: "Raytrace: every protocol does well", paper: "≥ 8",
		measure: func(r *Runner) (string, bool) {
			low := math.Inf(1)
			for _, p := range proto.PaperNames() {
				for _, g := range core.Granularities {
					low = min(low, sp(r, "raytrace", p, g))
				}
			}
			return fmt.Sprintf("lowest %.2f", low), low >= 8
		}},
	{section: "Figure 1", what: "FFT: every protocol performs poorly", paper: "best 1.9",
		measure: func(r *Runner) (string, bool) {
			b, at := best(r, "fft", proto.PaperNames(), core.Granularities)
			return fmt.Sprintf("best %.2f (%s)", b, at), near(b, 1.9)
		},
		deviation: "With the paper's own sequential time and a network calibrated to its microbenchmarks, FFT's " +
			"transposes cannot hold the speedup near 2; the paper's figure likely reflects memory-system effects " +
			"(32 MB matrices on 64 MB nodes) this model leaves out. The trends hold: granularity helps up to 1 KB and " +
			"the protocols nearly tie."},

	{section: "Tables 3–14", what: "LU read faults at 64, 256 and 1024 B, every protocol", paper: "394464 / 100752 / 25184",
		measure: func(r *Runner) (string, bool) {
			holds, got := true, []string{}
			for i, g := range []int{64, 256, 1024} {
				for _, p := range proto.PaperNames() {
					holds = holds && near(float64(run(r, "lu", p, g).Total.ReadFaults), []float64{394464, 100752, 25184}[i])
				}
				got = append(got, strconv.FormatInt(run(r, "lu", core.SC, g).Total.ReadFaults, 10))
			}
			return strings.Join(got, " / ") + " (sc)", holds
		}},
	{section: "Tables 3–14", what: "LU takes no write faults at 64–1024 B, every protocol", paper: "0",
		measure: func(r *Runner) (string, bool) {
			var w int64
			for _, g := range []int{64, 256, 1024} {
				for _, p := range proto.PaperNames() {
					w += run(r, "lu", p, g).Total.WriteFaults
				}
			}
			return strconv.FormatInt(w, 10), w == 0
		}},
	{section: "Tables 3–14", what: "LU at 4096 B: a quarter of 1 KB's read faults, and no write faults", paper: "6288 reads, 0 writes",
		measure: func(r *Runner) (string, bool) {
			f := run(r, "lu", core.SC, 4096).Total
			return fmt.Sprintf("%d reads, %d writes (sc)", f.ReadFaults, f.WriteFaults), near(float64(f.ReadFaults), 6288) && f.WriteFaults == 0
		},
		deviation: "At 4096 B one coherence block holds two of an owner's 2 KB matrix blocks. Other processors read " +
			"the finished one while the owner still updates the other, so the owner takes upgrade write faults and the " +
			"readers fault again. The paper's counts show no such effect; 64–1024 B match."},
	{section: "Tables 3–14", what: "Water-Nsquared at 4096 B: the LRC protocols take no more read misses than SC, and about its write faults",
		paper: "slightly fewer; near-identical", measure: func(r *Runner) (string, bool) {
			sc, sw, hl := run(r, "water-nsquared", core.SC, 4096).Total, run(r, "water-nsquared", core.SWLRC, 4096).Total, run(r, "water-nsquared", core.HLRC, 4096).Total
			return fmt.Sprintf("reads %d / %d / %d, writes %d / %d / %d (sc / swlrc / hlrc)",
					sc.ReadFaults, sw.ReadFaults, hl.ReadFaults, sc.WriteFaults, sw.WriteFaults, hl.WriteFaults),
				sw.ReadFaults <= sc.ReadFaults && hl.ReadFaults <= sc.ReadFaults &&
					near(float64(sw.WriteFaults), float64(sc.WriteFaults)) && near(float64(hl.WriteFaults), float64(sc.WriteFaults))
		}},
	{section: "Tables 3–14", what: "Volrend-Rowwise (Table 8): HLRC takes 10–30× fewer write faults than SC at 1024 and 4096 B", paper: "10–30×",
		measure: func(r *Runner) (string, bool) {
			x1, x4 := fewerWrites(r, "volrend-rowwise", 1024), fewerWrites(r, "volrend-rowwise", 4096)
			return fmt.Sprintf("%.1f× / %.1f×", x1, x4), inRange(x1, 10, 30) && inRange(x4, 10, 30)
		}},
	{section: "Tables 3–14", what: "Tables 9–12: HLRC takes 10–30× fewer write faults than SC at 4096 B", paper: "10–30×",
		measure: func(r *Runner) (string, bool) {
			holds, got := true, []string{}
			for _, app := range []string{"volrend-original", "water-spatial", "raytrace", "barnes-spatial"} {
				x := fewerWrites(r, app, 4096)
				holds = holds && inRange(x, 10, 30)
				got = append(got, fmt.Sprintf("%.1f×", x))
			}
			return strings.Join(got, " / "), holds
		},
		deviation: "Nearly every HLRC write fault in these four applications makes a twin (the run table's twins " +
			"column): it is a block's first write in an interval, which SC takes too. HLRC saves only SC's repeated write " +
			"faults on falsely shared blocks, and these four have too few of them to reach the paper's factor. The " +
			"direction holds in all four."},
	{section: "Tables 3–14", what: "Water-Spatial (Table 10): SW-LRC's delayed invalidations cut read misses at 4096 B", paper: "≈10× fewer than SC",
		measure: func(r *Runner) (string, bool) {
			x := float64(run(r, "water-spatial", core.SC, 4096).Total.ReadFaults) / float64(run(r, "water-spatial", core.SWLRC, 4096).Total.ReadFaults)
			return fmt.Sprintf("%.1f× fewer", x), near(x, 10)
		},
		deviation: "SC's read faults on Water-Spatial grow with block size (Table 10) while SW-LRC's fall, so at 4096 B " +
			"the gap is wider than the paper's. The direction holds."},
	{section: "Tables 3–14", what: "Barnes-Original (Table 13): the LRC protocols take fewer read misses than SC at 4096 B", paper: "4× fewer",
		measure: func(r *Runner) (string, bool) {
			sc := float64(run(r, "barnes-original", core.SC, 4096).Total.ReadFaults)
			sw, hl := sc/float64(run(r, "barnes-original", core.SWLRC, 4096).Total.ReadFaults), sc/float64(run(r, "barnes-original", core.HLRC, 4096).Total.ReadFaults)
			return fmt.Sprintf("%.1f× / %.1f× fewer (swlrc / hlrc)", sw, hl), near(sw, 4) && near(hl, 4)
		},
		deviation: barnesDeviation},

	{section: "Table 15", what: "Barnes-Original: HLRC-4096 moves far more data than SC-64", paper: "≈25×",
		measure: func(r *Runner) (string, bool) {
			x := float64(run(r, "barnes-original", core.HLRC, 4096).NetBytes) / float64(run(r, "barnes-original", core.SC, 64).NetBytes)
			return fmt.Sprintf("%.1f×", x), near(x, 25)
		},
		deviation: barnesDeviation},
	{section: "Table 15", what: "Barnes-Original at 4096 B: SW-LRC moves more data than HLRC (whole blocks against diffs)", paper: "≈2×",
		measure: func(r *Runner) (string, bool) {
			x := float64(run(r, "barnes-original", core.SWLRC, 4096).NetBytes) / float64(run(r, "barnes-original", core.HLRC, 4096).NetBytes)
			return fmt.Sprintf("%.2f×", x), near(x, 2)
		},
		deviation: "Both protocols fetch whole blocks on a read fault, and Barnes-Original's read faults outnumber its " +
			"write faults under both (Table 13), so SW-LRC's whole-block ownership transfers, where HLRC sends diffs, add " +
			"less than in the paper. The ordering holds."},

	{section: "Tables 16 and 17", what: "Original implementations: SC's best fixed granularity is 256 B", paper: "256 B, HM 0.837",
		measure: func(r *Runner) (string, bool) {
			b, at := bestCell(r, "table16", core.SC)
			return fmt.Sprintf("%s, HM %.3f", at, b), at == "sc-256B" && near(b, 0.837)
		}},
	{section: "Tables 16 and 17", what: "Original implementations: SC-256 is the best fixed combination", paper: "sc-256",
		measure: func(r *Runner) (string, bool) {
			b, at := bestCell(r, "table16", proto.PaperNames()...)
			return fmt.Sprintf("%s, HM %.3f (sc-256B %.3f)", at, b, cell(r, "table16", "sc", "256B")), at == "sc-256B"
		},
		deviation: "HLRC-256 edges out SC-256: at 256 B HLRC beats SC on FFT, Ocean-Original, Volrend-Original and " +
			"Water-Spatial, and SC leads clearly only on Barnes-Original (Figure 1). SC's own best granularity is still " +
			"256 B."},
	{section: "Tables 16 and 17", what: "Original implementations: SC and HLRC tie with the granularity free", paper: "g_best 0.955 / 0.956",
		measure: func(r *Runner) (string, bool) {
			sc, hl := cell(r, "table16", "sc", "g_best"), cell(r, "table16", "hlrc", "g_best")
			return fmt.Sprintf("g_best %.3f / %.3f", sc, hl), near(sc, 0.955) && near(hl, 0.956) && near(sc, hl)
		}},
	{section: "Tables 16 and 17", what: "Best versions: HLRC-4096's harmonic mean", paper: "0.927",
		measure: func(r *Runner) (string, bool) {
			v := cell(r, "table17", "hlrc", "4KB")
			return fmt.Sprintf("%.3f", v), near(v, 0.927)
		}},
	{section: "Tables 16 and 17", what: "Best versions: HLRC-4096 beats every SC and SW-LRC fixed combination", paper: "HLRC at page granularity",
		measure: func(r *Runner) (string, bool) {
			hl := cell(r, "table17", "hlrc", "4KB")
			b, _ := bestCell(r, "table17", core.SC, core.SWLRC)
			return fmt.Sprintf("%.3f against at most %.3f", hl, b), hl > b
		}},
	{section: "Tables 16 and 17", what: "Best versions: HLRC-4096 is the best fixed combination", paper: "hlrc-4096",
		measure: func(r *Runner) (string, bool) {
			b, at := bestCell(r, "table17", proto.PaperNames()...)
			return fmt.Sprintf("%s, HM %.3f", at, b), at == "hlrc-4KB"
		},
		deviation: "HLRC at 1 KB comes close to every benchmark's best speedup. At 4 KB FFT falls well behind (its read " +
			"faults rise again past 1 KB) and Ocean and Volrend fall a little, so the 4 KB column's harmonic mean is below " +
			"the 1 KB column's."},
	{section: "Tables 16 and 17", what: "Best versions: HLRC is the best protocol at every granularity", paper: "HLRC",
		measure: func(r *Runner) (string, bool) {
			n := 0
			for _, g := range core.Granularities {
				c := blockLabel(g)
				if hl := cell(r, "table17", "hlrc", c); hl >= cell(r, "table17", "sc", c) && hl >= cell(r, "table17", "swlrc", c) {
					n++
				}
			}
			return fmt.Sprintf("HLRC in %d of 4 columns", n), n == 4
		}},

	{section: "Figure 2", what: "LU at 4096 B runs faster with interrupts than with polling", paper: "by 44–66%",
		measure: func(r *Runner) (string, bool) {
			lo, hi := math.Inf(1), 0.0
			for _, p := range proto.PaperNames() {
				k := sweep.Key{App: "lu", Protocol: p, Block: 4096, Notify: network.Interrupt, Nodes: r.nodes}
				gain := 100 * (r.speedup(k)/sp(r, "lu", p, 4096) - 1)
				lo, hi = min(lo, gain), max(hi, gain)
			}
			return fmt.Sprintf("by %.1f–%.1f%%", lo, hi), inRange(lo, 44, 66) && inRange(hi, 44, 66)
		}},
}

// section is one of EXPERIMENTS.md's generated sections: it shows its
// experiments' tables verbatim, then the claims filed under its title.
type section struct {
	title string
	exps  []string
}

// sections are EXPERIMENTS.md's generated sections, in order.
var sections = []section{
	{"Table 1", []string{"table1"}},
	{"Figure 1", []string{"fig1"}},
	{"Tables 3–14", []string{"table3", "table4", "table5", "table6", "table7", "table8", "table9", "table10",
		"table11", "table12", "table13", "table14"}},
	{"Table 15", []string{"table15"}},
	{"Tables 16 and 17", []string{"table16", "table17"}},
	{"Figure 2", []string{"fig2"}},
}

// fence is text as a fenced block, each line indented by indent.
func fence(text, indent string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter("```\n"+text+"```\n", "\n") {
		if strings.TrimSpace(line) != "" {
			b.WriteString(indent)
		}
		b.WriteString(line)
	}
	return b.String()
}

// block is one generated part of EXPERIMENTS.md, named for the failure
// message.
type block struct{ name, text string }

// paperBlocks renders EXPERIMENTS.md's generated parts from r: each
// section's tables and claims (measured holds each claim's measured value),
// the extension tables that render from the matrix, and the numbered list
// of known deviations, which the claims tables refer to.
func paperBlocks(t *testing.T, r *Runner, measured []string) []block {
	var blocks []block
	deviations, numbers := "", map[int]int{}
	for i, c := range paperClaims {
		if c.deviation != "" {
			numbers[i] = len(numbers) + 1
			deviations += fmt.Sprintf("%d. **%s — %s** (paper: %s; measured: %s). %s\n",
				numbers[i], c.section, c.what, c.paper, measured[i], c.deviation)
		}
	}
	for _, sec := range sections {
		var b strings.Builder
		for _, name := range sec.exps {
			fmt.Fprintf(&b, "**%s**\n\n%s\n", name, fence(show(r, get(t, name).Run), ""))
		}
		b.WriteString("| Claim | Paper | Measured | |\n|---|---|---|---|\n")
		for i, c := range paperClaims {
			if c.section != sec.title {
				continue
			}
			status := "holds"
			if n, ok := numbers[i]; ok {
				status = fmt.Sprintf("deviation %d", n)
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", c.what, c.paper, measured[i], status)
		}
		blocks = append(blocks, block{sec.title, b.String()})
	}
	for _, name := range []string{"scaling", "delayed", "bigblocks"} {
		blocks = append(blocks, block{name, fence(show(r, get(t, name).Run), "  ")})
	}
	// fourway's lease column reads counters the run table has none of.
	fourway := get(t, "fourway")
	blocks = append(blocks, block{"fourway", fence(show(r, func(r *Runner) (err error) {
		defer catch(&err)
		speedups{title: "Four protocol families (speedups, polling)"}.render(r, fourway.cuts)
		return nil
	}), "  ")})
	return append(blocks, block{"known deviations", deviations})
}

// TestPaperMatrix checks the paper matrix against the code, the paper and
// EXPERIMENTS.md: the drift points still simulate to lines of paperRows;
// every claim holds or is listed as a deviation, and no listed deviation
// holds; and EXPERIMENTS.md shows every generated block as it renders now.
func TestPaperMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the twelve paper-size baselines")
	}
	r := paperView(t)
	measured := make([]string, len(paperClaims))
	for i, c := range paperClaims {
		if !slices.ContainsFunc(sections, func(s section) bool { return s.title == c.section }) {
			t.Errorf("%q is filed under %q, which is no section", c.what, c.section)
		}
		var holds bool
		if err := lookup(func() { measured[i], holds = c.measure(r) }); err != nil {
			t.Fatalf("%s: %s: %v", c.section, c.what, err)
		}
		switch {
		case !holds && c.deviation == "":
			t.Errorf("%s: %q does not hold: paper %s, measured %s", c.section, c.what, c.paper, measured[i])
		case holds && c.deviation != "":
			t.Errorf("%s: %q holds (paper %s, measured %s), but is listed as a deviation", c.section, c.what, c.paper, measured[i])
		}
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var blocks []block
	if err := lookup(func() { blocks = paperBlocks(t, r, measured) }); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if !strings.Contains(string(doc), b.text) {
			t.Errorf("EXPERIMENTS.md does not show the paper matrix's %s as it renders now; paste:\n%s", b.name, b.text)
		}
	}
}
