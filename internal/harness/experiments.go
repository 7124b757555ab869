package harness

import (
	"fmt"
	"strconv"
	"strings"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/metrics"
	"dsmsim/internal/network"
	"dsmsim/internal/proto"
	"dsmsim/internal/sim"
	"dsmsim/internal/sweep"
)

// matrix is one cut of the evaluation cross product: every listed
// application under every cluster size × protocol × block size, at one
// notification mode and with one set of run settings. An experiment is
// declared as the cuts it reads; its point set and its renderer's loops
// both come from them (declare), so the two cannot disagree.
type matrix struct {
	apps []string
	// protos nil means the runner's set: the paper's three unless overridden.
	protos []string
	// blocks empty leaves only the baselines.
	blocks []int
	notify network.Notify
	// nodes nil means the runner's cluster size.
	nodes []int
	// baselines adds each application's sequential run, the numerator of
	// its speedups.
	baselines bool
	// settings are what every point of the cut carries beyond its coordinates.
	settings sweep.Settings
}

// protocols resolves the cut's protocol set under r.
func (m matrix) protocols(r *Runner) []string {
	if m.protos != nil {
		return m.protos
	}
	if len(r.protocols) > 0 {
		return r.protocols
	}
	return proto.PaperNames()
}

// key is the point the cut holds for one application, protocol and block
// size at r's cluster size: under a fault grid, the first variant's (the
// one tables render) unless the cut has a plan of its own.
func (m matrix) key(r *Runner, app, p string, g int) sweep.Key {
	k := sweep.Key{App: app, Protocol: p, Block: g, Notify: m.notify, Nodes: r.nodes, Settings: m.settings}
	if len(r.faults) > 0 && m.settings.Faults == "" {
		k.Fault = r.faults[0]
	}
	return k
}

// points expands the cut at r's scale in canonical sweep order, each
// application's baseline first — the order a sweep's output follows.
func (m matrix) points(r *Runner) []sweep.Key {
	nodes := m.nodes
	if nodes == nil {
		nodes = []int{r.nodes}
	}
	var variants []string // none for a cut with a plan of its own
	if m.settings.Faults == "" {
		variants = r.faults
	}
	var pts []sweep.Key
	for _, n := range nodes {
		s := sweep.Spec{Apps: m.apps, Protocols: m.protocols(r), Granularities: m.blocks,
			Notifies: []network.Notify{m.notify}, Nodes: n, Baselines: m.baselines, Faults: variants}
		for _, k := range s.Points() {
			if !k.Sequential {
				k.Settings = m.settings
			}
			pts = append(pts, k)
		}
	}
	return pts
}

// declare builds one registry entry: cuts is both what its points are
// and all that run is given to iterate.
func declare(name, desc string, run func(*Runner, []matrix), cuts ...matrix) Experiment {
	return Experiment{Name: name, Desc: desc, cuts: cuts,
		Run: func(r *Runner) (err error) {
			defer catch(&err)
			run(r, cuts)
			return nil
		}}
}

// faultTableApps orders the paper's Tables 3–14, one application each.
var faultTableApps = []string{
	"lu", "ocean-rowwise", "ocean-original", "fft", "water-nsquared", "volrend-rowwise",
	"volrend-original", "water-spatial", "raytrace", "barnes-spatial", "barnes-original", "barnes-partree",
}

// Experiments lists every experiment: the paper's tables and figures in
// paper order, then the dimensions its §7 lists as unexamined (memory
// utilization, larger clusters, all-software access control, other
// consistency models and block sizes) and this repository's own profiles.
func Experiments() []Experiment {
	names, grans := apps.Names(), core.Granularities
	paper := matrix{apps: names, blocks: grans, baselines: true}
	one := func(app string) matrix { return matrix{apps: []string{app}, blocks: grans} }
	speedupsOf := func(list, protos []string) matrix {
		return matrix{apps: list, protos: protos, blocks: grans, baselines: true}
	}
	// software's cut at one per-access check cost: SC on the
	// fine-grain-friendly configuration where checks are most frequent.
	checked := func(cost sim.Time) matrix {
		return matrix{apps: []string{"ocean-rowwise"}, protos: []string{core.SC}, blocks: []int{64, 4096},
			baselines: true, settings: sweep.Settings{SoftwareAccessCheck: cost}}
	}

	exps := []Experiment{
		declare("table1", "Benchmarks, problem sizes, sequential execution times",
			(*Runner).table1, matrix{apps: apps.Originals(), baselines: true}),
		declare("fig1", "Speedups: 12 apps × 3 protocols × 4 granularities (polling)",
			speedups{title: "Figure 1: Speedups on {nodes} nodes (polling)"}.render, paper),
		// Table 2 classifies from the paper's page-granularity HLRC run
		// (sharing patterns are properties of the program, not the
		// protocol) whatever protocol set the runner sweeps.
		declare("table2", "Classification of sharing patterns and synchronization granularity",
			(*Runner).table2, paper, matrix{apps: names, protos: []string{core.HLRC}, blocks: []int{4096}}),
	}
	faultCounts := counters{
		title:    "Fault counts for {app} (totals over {nodes} nodes)",
		kindHead: "Fault", kindMajor: true,
		kinds: []counterKind{
			{"read", func(res *core.Result) string { return strconv.FormatInt(res.Total.ReadFaults, 10) }},
			{"write", func(res *core.Result) string { return strconv.FormatInt(res.Total.WriteFaults, 10) }},
		},
	}
	// degradation's cuts, one per loss rate. All plans share fault seed 1;
	// the lossless one sets nothing else, so it runs the healthy machine
	// whatever plan the command line gives.
	var lossy []matrix
	for _, rate := range lossRates {
		plan := "seed=1"
		if rate > 0 {
			plan = fmt.Sprintf("drop=%g,%s", rate, plan)
		}
		lossy = append(lossy, matrix{apps: []string{"lu"}, protos: proto.PaperNames(), blocks: []int{4096},
			settings: sweep.Settings{Faults: plan}})
	}
	kb := func(bytes int64) string { return strconv.FormatFloat(float64(bytes)/1024, 'f', 1, 64) }
	for i, app := range faultTableApps {
		exps = append(exps, declare(fmt.Sprintf("table%d", 3+i), "Read/write fault counts for "+app,
			faultCounts.render, one(app)))
	}
	return append(exps,
		// The paper's fragmentation analysis: HLRC at 4 KB moves far more
		// data than SC at 64 B, and SW-LRC roughly doubles HLRC.
		declare("table15", "Barnes-Original data traffic by protocol and granularity",
			counters{
				title: "Table 15: {app} data traffic (MB total)",
				kinds: []counterKind{{cell: func(res *core.Result) string {
					return strconv.FormatFloat(float64(res.NetBytes)/1e6, 'f', 2, 64)
				}}},
			}.render, one("barnes-original")),
		declare("table16", "HM of relative efficiency, original applications",
			efficiency{title: "Table 16: HM of relative efficiency (original implementations)"}.render,
			speedupsOf(apps.Originals(), nil)),
		declare("table17", "HM of relative efficiency, best version per combination",
			efficiency{title: "Table 17: HM of relative efficiency (best version per combination)", versions: true}.render,
			paper),
		declare("fig2", "Speedups of LU and Water-Nsquared with the interrupt mechanism",
			speedups{title: "Figure 2: Speedups with the interrupt mechanism"}.render,
			matrix{apps: []string{"lu", "water-nsquared"}, blocks: grans, notify: network.Interrupt, baselines: true}),

		// A representative multiple-writer application: finer blocks mean
		// more per-block state, and HLRC additionally twins.
		declare("memory", "Protocol memory utilization by granularity (§7 future work)",
			counters{
				title:    "Protocol memory utilization for {app} (KB)",
				kindHead: "Kind",
				kinds: []counterKind{
					{"static", func(res *core.Result) string { return kb(res.ProtoStaticBytes) }},
					{"peak-dyn", func(res *core.Result) string { return kb(res.ProtoPeakBytes) }},
				},
			}.render, matrix{apps: []string{"water-spatial"}, protos: proto.PaperNames(), blocks: grans}),
		declare("scaling", "Speedup vs cluster size, 1-32 nodes (§7: the hoped-for 32-node runs)",
			(*Runner).scaling, matrix{apps: []string{"lu", "water-nsquared"}, protos: []string{core.HLRC},
				blocks: []int{4096}, nodes: []int{1, 2, 4, 8, 16, 32}, baselines: true}),
		declare("software", "All-software access control: instrumented check cost (§7 future work)",
			(*Runner).software, checked(0), checked(100), checked(500)),
		// The applications most exposed to SC's false-sharing ping-pong
		// (§5.4's "interrupts approximate delayed consistency", made explicit).
		declare("delayed", "Delayed consistency vs SC across granularities (§7 future work)",
			speedups{title: "Delayed consistency vs SC (speedups, polling)"}.render,
			speedupsOf([]string{"ocean-rowwise", "volrend-original"}, []string{core.SC, core.DC})),
		// One false-sharing-bound barrier application and one lock-bound
		// one, the two regimes where the families differ most, under the
		// registry's whole catalog: a newly registered family joins without
		// touching the harness. The trailing column shows what tlc pays
		// instead of invalidation fan-out.
		declare("fourway", "Four protocol families side by side: SC/DC invalidation, SW-LRC, HLRC, TLC leases",
			speedups{title: "Four protocol families (speedups, polling)", tailHead: "lease traffic", tail: leaseTraffic}.render,
			speedupsOf([]string{"ocean-rowwise", "water-nsquared"}, proto.Names())),
		// For a coarse-grain application prefetching keeps helping; for a
		// fine-grain multiple-writer one, fragmentation and false sharing
		// keep growing.
		declare("bigblocks", "Granularities beyond 4096 bytes (§7: not studied in the paper)",
			speedups{title: "Block sizes beyond 4096 bytes (speedups)"}.render,
			matrix{apps: []string{"lu", "water-spatial"}, protos: []string{core.SC, core.HLRC},
				blocks: []int{4096, 8192, 16384}, baselines: true}),
		declare("breakdown", "Execution-time breakdown per application at the paper's two headline points",
			(*Runner).breakdown,
			matrix{apps: names, protos: []string{core.SC}, blocks: []int{64}},
			matrix{apps: names, protos: []string{core.HLRC}, blocks: []int{4096}}),
		declare("phases", "Phase-resolved cost breakdown at barrier epochs (Figure 2 style)",
			(*Runner).phases,
			matrix{apps: []string{"ocean-rowwise", "barnes-original"}, protos: []string{core.SC, core.HLRC}, blocks: []int{64, 4096}}),
		// Every run of the last three carries its own fault plan or
		// profiler, whatever the template's; none of them has a CSV row.
		declare("degradation", "Completion time vs link loss rate per protocol (unreliable network)",
			(*Runner).degradation, lossy...),
		declare("sharing", "False-sharing fraction vs coherence granularity (sharing-pattern profiler)",
			(*Runner).sharing, matrix{apps: []string{"volrend-original", "volrend-rowwise", "lu", "ocean-original"},
				protos: []string{core.HLRC}, blocks: grans, settings: sweep.Settings{ShareProfile: true}}),
		declare("critpath", "Critical-path composition by protocol and granularity (what limits each point)",
			(*Runner).critPath, matrix{apps: []string{"ocean-rowwise"}, protos: proto.PaperNames(), blocks: grans,
				settings: sweep.Settings{CritPath: true}}),
	)
}

// lossRates are degradation's link loss rates, one cut each.
var lossRates = []float64{0, 0.001, 0.01, 0.05}

// heading prints an experiment's title line; {app} is the cut's first
// application, {nodes} the cluster size.
func (r *Runner) heading(title string, m matrix) {
	r.printf("%s\n", strings.NewReplacer("{app}", m.apps[0], "{nodes}", strconv.Itoa(r.nodes)).Replace(title))
}

// blockLabel is a block size as the column headings spell it.
func blockLabel(g int) string {
	if g < 1024 {
		return fmt.Sprintf("%dB", g)
	}
	return fmt.Sprintf("%dKB", g/1024)
}

// speedups renders a cut as one row per application × protocol and one
// speedup per block size (Figures 1 and 2 and the tables shaped like them).
type speedups struct {
	title string
	// tail, when set, adds a trailing column under tailHead, computed
	// from each row's run at the cut's last block size.
	tailHead string
	tail     func(*core.Result) string
}

func (s speedups) render(r *Runner, cuts []matrix) {
	m := cuts[0]
	last := m.blocks[len(m.blocks)-1]
	r.heading(s.title, m)
	r.printf("%-18s %-6s", "Application", "Proto")
	for _, g := range m.blocks {
		r.printf(" %8s", blockLabel(g))
	}
	if s.tail != nil {
		r.printf("   %s %s", blockLabel(last), s.tailHead)
	}
	r.printf("\n")
	for _, app := range m.apps {
		for _, p := range m.protocols(r) {
			r.printf("%-18s %-6s", app, p)
			for _, g := range m.blocks {
				sp := r.speedup(m.key(r, app, p, g))
				r.printf(" %8.2f", sp)
			}
			if s.tail != nil {
				res := r.result(m.key(r, app, p, last))
				r.printf("%s", s.tail(res))
			}
			r.printf("\n")
		}
	}
}

// leaseTraffic is fourway's trailing column: lease renewals, self-expiries
// and clock jumps, blank for the protocols that keep no leases.
func leaseTraffic(res *core.Result) string {
	t := res.Total
	if t.LeaseRenewals+t.LeaseExpiries+t.TimestampJumps == 0 {
		return ""
	}
	return fmt.Sprintf("   renew=%d expire=%d jumps=%d", t.LeaseRenewals, t.LeaseExpiries, t.TimestampJumps)
}

// counters renders one application's counters as a row per protocol and
// kind and one cell per block size (the paper's Tables 3–15 and the memory
// table).
type counters struct {
	title string
	// kindHead heads the column naming the kinds; empty for a single
	// unnamed kind, which gets no column.
	kindHead string
	kinds    []counterKind
	// kindMajor groups the rows by kind, its column first, rather than
	// by protocol.
	kindMajor bool
}

// counterKind is one row per protocol: its name and what it reads off a run.
type counterKind struct {
	name string
	cell func(*core.Result) string
}

func (c counters) render(r *Runner, cuts []matrix) {
	m := cuts[0]
	width := 6
	for _, k := range c.kinds {
		width = max(width, len(k.name))
	}
	label := func(proto, kind string) {
		switch {
		case c.kindHead == "":
			r.printf("%-6s", proto)
		case c.kindMajor:
			r.printf("%-*s %-6s", width, kind, proto)
		default:
			r.printf("%-6s %-*s", proto, width, kind)
		}
	}
	row := func(proto string, kind counterKind) {
		label(proto, kind.name)
		for _, g := range m.blocks {
			res := r.result(m.key(r, m.apps[0], proto, g))
			r.printf(" %10s", kind.cell(res))
		}
		r.printf("\n")
	}
	r.heading(c.title, m)
	label("Proto", c.kindHead)
	for _, g := range m.blocks {
		r.printf(" %10s", blockLabel(g))
	}
	r.printf("\n")
	// Rows nest the way their label columns read.
	protos := m.protocols(r)
	if c.kindMajor {
		for _, k := range c.kinds {
			for _, p := range protos {
				row(p, k)
			}
		}
		return
	}
	for _, p := range protos {
		for _, k := range c.kinds {
			row(p, k)
		}
	}
}

// sizeLabel describes the problem size used (Table 1's sizes at Paper
// scale; the reduced test sizes otherwise).
var sizeLabel = map[string][2]string{
	"lu":               {"1024×1024 matrix, 16×16 blocks", "64×64 matrix, 8×8 blocks"},
	"fft":              {"1M complex points", "4K complex points"},
	"ocean-original":   {"514×514 grid", "66×66 grid"},
	"ocean-rowwise":    {"514×514 grid", "66×66 grid"},
	"water-nsquared":   {"4096 molecules, 3 steps", "64 molecules, 2 steps"},
	"water-spatial":    {"4096 molecules, 5 steps", "64 molecules, 2 steps"},
	"volrend-original": {"128³ volume, 4 frames", "32³ volume, 2 frames"},
	"volrend-rowwise":  {"128³ volume, 4 frames", "32³ volume, 2 frames"},
	"raytrace":         {"256×256 image, 512 spheres", "32×32 image, 32 spheres"},
	"barnes-original":  {"16384 particles, 2 steps", "128 particles, 2 steps"},
	"barnes-partree":   {"16384 particles, 2 steps", "128 particles, 2 steps"},
	"barnes-spatial":   {"16384 particles, 2 steps", "128 particles, 2 steps"},
}

func (r *Runner) label(app string) string {
	l, ok := sizeLabel[app]
	if !ok {
		return "?"
	}
	if r.size == apps.Paper {
		return l[0]
	}
	return l[1]
}

// table1 prints problem sizes and sequential execution times for the eight
// base benchmarks.
func (r *Runner) table1(cuts []matrix) {
	r.printf("Table 1: Benchmarks, problem sizes, and sequential execution times\n")
	r.printf("%-18s %-32s %s\n", "Benchmark", "Problem Size", "Sequential Time")
	for _, app := range cuts[0].apps {
		seq := r.result(sweep.Seq(app))
		r.printf("%-18s %-32s %10.3fs\n", app, r.label(app), float64(seq.Time)/float64(sim.Second))
	}
}

// table2 prints the sharing-pattern and synchronization classification,
// read off the second cut's run, beside the best speedup in the first.
func (r *Runner) table2(cuts []matrix) {
	m, class := cuts[0], cuts[1]
	r.printf("Table 2: Classification of sharing patterns and synchronization granularity\n")
	r.printf("%-18s %-8s %12s %10s %9s %10s %10s\n",
		"Application", "Writers", "CompPerSync", "Barriers", "Locks", "BestSpeed", "Best@")
	for _, app := range m.apps {
		res := r.result(class.key(r, app, class.protos[0], class.blocks[0]))
		writers := "single"
		if res.MultiWriterBlocks > res.BlocksWritten/20 {
			writers = "multiple"
		}
		syncs := res.Total.LockAcquires + res.Total.BarrierEntries
		comp := "-"
		if syncs > 0 {
			per := res.Total.Compute / sim.Time(syncs)
			comp = per.String()
		}
		best, bestAt := 0.0, ""
		for _, p := range m.protocols(r) {
			for _, g := range m.blocks {
				s := r.speedup(m.key(r, app, p, g))
				if s > best {
					best, bestAt = s, fmt.Sprintf("%s-%d", p, g)
				}
			}
		}
		r.printf("%-18s %-8s %12s %10d %9d %10.2f %10s\n",
			app, writers, comp,
			res.Total.BarrierEntries/int64(r.nodes),
			res.Total.LockAcquires, best, bestAt)
	}
}

// efficiency renders the HM-of-relative-efficiency statistics of Tables 16
// and 17. A row is one application — with versions set, one benchmark taken
// at the best of its versions for each protocol and block size — and its
// relative efficiency at a point is its speedup there over its best
// anywhere in the cut.
type efficiency struct {
	title    string
	versions bool
}

func (e efficiency) render(r *Runner, cuts []matrix) {
	m := cuts[0]
	protos := m.protocols(r)
	type point struct {
		row, proto string
		block      int
	}
	var rows []string
	sp, best := map[point]float64{}, map[string]float64{}
	for _, app := range m.apps {
		row := app
		if e.versions {
			// An app Get does not know has no runs, so the lookups
			// below name its first point.
			entry, _ := apps.Get(app)
			row = entry.BaseName
		}
		if _, seen := best[row]; !seen {
			rows = append(rows, row)
		}
		for _, p := range protos {
			for _, g := range m.blocks {
				s := r.speedup(m.key(r, app, p, g))
				sp[point{row, p, g}] = max(sp[point{row, p, g}], s)
				best[row] = max(best[row], s)
			}
		}
	}
	// hm is the harmonic mean over rows of each row's best relative
	// efficiency among the given points.
	hm := func(protos []string, blocks []int) float64 {
		var res []float64
		for _, row := range rows {
			b := 0.0
			for _, p := range protos {
				for _, g := range blocks {
					b = max(b, sp[point{row, p, g}]/best[row])
				}
			}
			res = append(res, b)
		}
		return harmonicMean(res)
	}

	r.printf("%s\n", e.title)
	r.printf("%-8s", "Proto")
	for _, g := range m.blocks {
		r.printf(" %8s", blockLabel(g))
	}
	r.printf(" %8s\n", "g_best")
	for _, p := range protos {
		r.printf("%-8s", p)
		for _, g := range m.blocks {
			r.printf(" %8.3f", hm([]string{p}, []int{g}))
		}
		// g_best: best granularity per row for this protocol.
		r.printf(" %8.3f\n", hm([]string{p}, m.blocks))
	}
	// p_best: best protocol per row for each granularity.
	r.printf("%-8s", "p_best")
	for _, g := range m.blocks {
		r.printf(" %8.3f", hm(protos, []int{g}))
	}
	r.printf(" %8.3f\n", 1.0)
}

// eachConfig calls fn with the run of every application of the
// cuts under each cut's protocols × block sizes, application-major, and the
// configuration's "proto-block" label.
func (r *Runner) eachConfig(cuts []matrix, fn func(app, config string, res *core.Result)) {
	for _, app := range cuts[0].apps {
		for _, m := range cuts {
			for _, p := range m.protocols(r) {
				for _, g := range m.blocks {
					res := r.result(m.key(r, app, p, g))
					fn(app, fmt.Sprintf("%s-%d", p, g), res)
				}
			}
		}
	}
}

// breakdown prints each application's execution-time components — the
// per-category analysis style of §5.2 — under the paper's two headline
// configurations, SC-64 and HLRC-4096. Percentages are of summed node
// time; "proto" is read/write fault stall plus flush, "sync" is lock plus
// barrier stall.
func (r *Runner) breakdown(cuts []matrix) {
	r.printf("Execution-time breakdown (%% of summed node time)\n")
	r.printf("%-18s %-10s %8s %8s %8s %8s\n", "Application", "Config", "compute", "proto", "sync", "stolen")
	r.eachConfig(cuts, func(app, config string, res *core.Result) {
		tot := res.Total
		sum := tot.Compute + tot.ReadStall + tot.WriteStall + tot.LockStall + tot.BarrierStall + tot.FlushTime
		if sum == 0 {
			return
		}
		pct := func(x sim.Time) float64 { return 100 * float64(x) / float64(sum) }
		r.printf("%-18s %-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", app, config,
			pct(tot.Compute), pct(tot.ReadStall+tot.WriteStall+tot.FlushTime),
			pct(tot.LockStall+tot.BarrierStall), pct(tot.Stolen))
	})
}

// phases renders the phase-resolved cost breakdown: the run cut at its
// barrier epochs, each phase's summed node time split into the paper's
// Figure-2 categories (compute / data wait / synchronization / protocol
// overhead). Long runs are capped at a handful of leading phases with the
// remainder aggregated, since barrier-per-iteration applications produce
// hundreds of near-identical phases.
func (r *Runner) phases(cuts []matrix) {
	const maxRows = 6
	r.printf("Phase-resolved breakdown at barrier epochs (%% of phase node time)\n")
	r.printf("%-18s %-10s %-8s %10s %8s %8s %8s %8s\n",
		"Application", "Config", "Phase", "span", "compute", "data", "sync", "proto")
	r.eachConfig(cuts, func(app, config string, res *core.Result) {
		for _, row := range metrics.FoldPhases(res.Phases, maxRows) {
			if row.Span == 0 {
				continue
			}
			pct := func(x sim.Time) float64 { return 100 * float64(x) / float64(row.Span) }
			r.printf("%-18s %-10s %-8s %10v %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				app, config, row.Label, row.Span,
				pct(row.Delta.Compute), pct(row.DataWait()), pct(row.SyncWait()), pct(row.Overhead()))
		}
	})
}

// scaling prints speedups at page granularity across cluster sizes for one
// regular and one irregular application.
func (r *Runner) scaling(cuts []matrix) {
	m := cuts[0]
	r.printf("Speedup vs cluster size (HLRC, 4096B)\n")
	r.printf("%-18s", "Application")
	for _, n := range m.nodes {
		r.printf(" %6dp", n)
	}
	r.printf("\n")
	for _, app := range m.apps {
		r.printf("%-18s", app)
		for _, n := range m.nodes {
			k := m.key(r, app, m.protos[0], m.blocks[0])
			k.Nodes = n
			s := r.speedup(k)
			r.printf(" %7.2f", s)
		}
		r.printf("\n")
	}
}

// software compares the hardware access-control baseline against
// all-software instrumentation at each cut's per-check cost.
func (r *Runner) software(cuts []matrix) {
	r.heading("All-software access control, {app} under SC (speedup on {nodes} nodes)", cuts[0])
	r.printf("%-22s %8s %8s\n", "Check cost", "64B", "4096B")
	for _, m := range cuts {
		label := "hardware (T0)"
		if check := m.settings.SoftwareAccessCheck; check > 0 {
			label = check.String() + "/check"
		}
		r.printf("%-22s", label)
		for _, g := range m.blocks {
			s := r.speedup(m.key(r, m.apps[0], m.protos[0], g))
			r.printf(" %8.2f", s)
		}
		r.printf("\n")
	}
}

// sharing runs the sharing-pattern profiler across the paper's four
// granularities and reports, per application, what fraction of sharing
// misses is false sharing — the mechanism behind §5.2's restructuring
// results, measured directly. Volrend-Original's column-interleaved image
// suffers heavy false sharing that its row-wise restructuring removes;
// LU's dense blocked matrix stays true-sharing-dominated until blocks
// outgrow its tiles. Profiling is observational, so every run's clock and
// statistics match the unprofiled matrix runs bit for bit.
func (r *Runner) sharing(cuts []matrix) {
	m := cuts[0]
	r.printf("False sharing vs coherence granularity (HLRC, %d nodes; %% of sharing misses)\n", r.nodes)
	r.printf("%-18s %8s %8s %8s %8s   %s\n", "Application", "64B", "256B", "1KB", "4KB", "hottest region at 4KB")
	for _, app := range m.apps {
		r.printf("%-18s", app)
		var hot string
		for _, g := range m.blocks {
			res := r.result(m.key(r, app, m.protos[0], g))
			sh := res.Sharing
			r.printf(" %7.1f%%", 100*sh.FalseSharingFraction())
			if g == 4096 {
				if top := sh.Top(1); len(top) > 0 {
					hot = fmt.Sprintf("%s (%s, %d faults)", top[0].Name, top[0].TopClass(), top[0].Faults())
				}
			}
		}
		r.printf("   %s\n", hot)
	}
}

// critPath recovers the exact critical path of every protocol ×
// granularity point for one application and prints its component
// composition — the direct answer to "what limits this configuration".
// At fine grain SC's path is dominated by message wire and service time
// (the invalidation ping-pong of §5.2); at page grain the relaxed
// protocols shift the path toward barrier waiting and handler occupancy.
// Profiling is observational, so every run's clock matches the
// unprofiled matrix bit for bit.
func (r *Runner) critPath(cuts []matrix) {
	m := cuts[0]
	r.printf("Critical-path composition, %s on %d nodes (%% of path length)\n", m.apps[0], r.nodes)
	if r.whatIf != "" {
		r.printf("(what-if machine: %s)\n", r.whatIf)
	}
	r.printf("%-6s %6s %14s %8s %8s %8s %8s %8s %8s\n",
		"Proto", "Block", "path", "compute", "ovhd", "wire", "svc", "lock", "barrier")
	for _, p := range m.protos {
		for _, g := range m.blocks {
			res := r.result(m.key(r, m.apps[0], p, g))
			cp := res.CritPath
			pct := func(c critpath.Component) float64 { return 100 * cp.Frac(c) }
			r.printf("%-6s %5dB %14v %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				p, g, cp.Total,
				pct(critpath.Compute)+pct(critpath.Straggler),
				pct(critpath.Overhead),
				pct(critpath.MsgWire)+pct(critpath.Forward),
				pct(critpath.MsgService),
				pct(critpath.LockWait), pct(critpath.BarrierWait))
		}
	}
}

// degradation sweeps link loss rate (one cut per lossRates entry) ×
// protocol on one application and reports completion time, slowdown
// relative to the lossless wire, and the reliability-layer work
// (retransmissions, wire drops, acks) each protocol pays. Every faulty run
// still verifies under the sweep's verify policy — the ack/retransmission
// layer hides the loss from the coherence protocols; only the clock shows
// it. The plans are seeded, so the table is deterministic.
func (r *Runner) degradation(cuts []matrix) {
	m := cuts[0]
	app, block := m.apps[0], m.blocks[0]
	r.printf("Degradation under link loss: %s, %s, %dB blocks, %d nodes\n",
		app, "all protocols", block, r.nodes)
	r.printf("%-6s %7s %14s %9s %9s %9s %8s\n",
		"Proto", "loss", "time", "slowdown", "retx", "drops", "acks")
	for _, p := range m.protos {
		var lossless sim.Time
		for i, c := range cuts {
			res := r.result(c.key(r, app, p, block))
			if i == 0 {
				lossless = res.Time
			}
			r.printf("%-6s %7.3f %14v %8.3fx %9d %9d %8d\n",
				p, lossRates[i], res.Time, float64(res.Time)/float64(lossless),
				res.Retransmits, res.WireDrops, res.AcksSent)
		}
	}
}
