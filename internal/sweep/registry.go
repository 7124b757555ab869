package sweep

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/sim"
)

// Registry is the live view of a sweep: point counts, wall-clock runtimes
// and each finished point's statistics, served as Prometheus text at
// /metrics. It is the one piece of the sweep that deals in wall-clock
// time — which is why nothing it holds ever flows back into run results,
// tables, CSV files, or the progress lines on the terminal: those all stay
// deterministic.
//
// Each point is recorded once, keyed by Key, with the wall time of its run
// and the heap-free Result the sweep returns. All methods are safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	start   time.Time
	points  map[Key]point // every point run or announced
	running int
	fork    *ForkStats // set after each point of a sweep with Options.Fork
}

// point is one sweep point as the registry records it; res is nil until
// its run succeeded.
type point struct {
	res  *core.Result
	wall time.Duration
}

// NewRegistry creates a registry; the sweep's ETA clock starts now.
func NewRegistry() *Registry { return &Registry{start: time.Now()} }

// expect adds keys to the sweep's points. A key counts once however often
// it is announced or run.
func (r *Registry) expect(keys ...Key) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.points == nil {
		r.points = map[Key]point{}
	}
	for _, k := range keys {
		if _, ok := r.points[k]; !ok {
			r.points[k] = point{}
		}
	}
}

// started records that a run of k began.
func (r *Registry) started(k Key) {
	r.expect(k)
	r.mu.Lock()
	r.running++
	r.mu.Unlock()
}

// finished records that a run of k ended after wall with res (nil when it
// failed).
func (r *Registry) finished(k Key, wall time.Duration, res *core.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.running--
	if res != nil {
		r.points[k] = point{res: res, wall: wall}
	}
}

// setFork records the sweep's prefix-sharing counters.
func (r *Registry) setFork(fs ForkStats) {
	r.mu.Lock()
	r.fork = &fs
	r.mu.Unlock()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): sweep-level gauges plus per-point gauges labeled
// with the canonical point key, one series per finished point.
func (r *Registry) WritePrometheus(w io.Writer) {
	type named struct {
		key string
		point
	}
	r.mu.Lock()
	var done []named
	var wall time.Duration
	for k, p := range r.points {
		if p.res == nil {
			continue
		}
		done = append(done, named{k.String(), p})
		wall += p.wall
	}
	total, running, fork := len(r.points), r.running, r.fork
	elapsed := time.Since(r.start)
	r.mu.Unlock()
	sort.Slice(done, func(i, j int) bool { return done[i].key < done[j].key })
	eta := 0.0
	if remaining := total - len(done); remaining > 0 && len(done) > 0 {
		eta = wall.Seconds() / float64(len(done)) * float64(remaining)
	}

	gauge := func(metric, help, typ, val string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", metric, help, metric, typ, metric, val)
	}
	gauge("dsmsim_sweep_points_total", "Points in the sweep.", "gauge", fmt.Sprint(total))
	gauge("dsmsim_sweep_points_completed", "Points finished so far.", "gauge", fmt.Sprint(len(done)))
	gauge("dsmsim_sweep_points_running", "Points being computed right now.", "gauge", fmt.Sprint(running))
	gauge("dsmsim_sweep_elapsed_seconds", "Wall time since the sweep began.", "gauge", fmt.Sprintf("%.3f", elapsed.Seconds()))
	gauge("dsmsim_sweep_eta_seconds", "Estimated wall time to completion.", "gauge", fmt.Sprintf("%.3f", eta))
	// Fork gauges appear only when the sweep reported prefix sharing,
	// keeping fork-free sweeps' exports unchanged.
	if fork != nil {
		gauge("dsmsim_sweep_fork_prefixes", "Distinct warmup prefixes simulated for forked runs.", "gauge", fmt.Sprint(fork.Prefixes))
		gauge("dsmsim_sweep_fork_forked_runs", "Runs served from a shared warmup prefix.", "gauge", fmt.Sprint(fork.ForkedRuns))
		gauge("dsmsim_sweep_fork_saved_wall_seconds", "Warmup re-simulation wall time avoided by forking.", "gauge",
			fmt.Sprintf("%.3f", fork.SavedWall.Seconds()))
	}

	per := func(pts []named, metric, help string, val func(*named) string) {
		if len(pts) == 0 {
			return
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", metric, help, metric)
		for i := range pts {
			fmt.Fprintf(w, "%s{point=%q} %s\n", metric, pts[i].key, val(&pts[i]))
		}
	}
	seconds := func(t sim.Time) string { return fmt.Sprintf("%.6f", float64(t)/float64(sim.Second)) }
	per(done, "dsmsim_point_wall_seconds", "Host time one point took to simulate.",
		func(p *named) string { return fmt.Sprintf("%.3f", p.wall.Seconds()) })
	per(done, "dsmsim_point_virtual_seconds", "Simulated execution time of the point.",
		func(p *named) string { return seconds(p.res.Time) })
	per(done, "dsmsim_point_read_faults", "Read faults across all nodes of the run.",
		func(p *named) string { return fmt.Sprint(p.res.Total.ReadFaults) })
	per(done, "dsmsim_point_write_faults", "Write faults across all nodes of the run.",
		func(p *named) string { return fmt.Sprint(p.res.Total.WriteFaults) })
	per(done, "dsmsim_point_net_bytes", "Network bytes sent during the run.",
		func(p *named) string { return fmt.Sprint(p.res.NetBytes) })
	// Sharing-profile and critical-path gauges cover only the points that
	// ran with that profiler attached, so sweeps without them export none.
	var profiled, critted []named
	for _, p := range done {
		if p.res.Sharing != nil {
			profiled = append(profiled, p)
		}
		if p.res.CritPath != nil {
			critted = append(critted, p)
		}
	}
	per(profiled, "dsmsim_point_true_sharing_faults", "Faults attributed to true sharing.",
		func(p *named) string { return fmt.Sprint(p.res.Sharing.Total.TrueFaults) })
	per(profiled, "dsmsim_point_false_sharing_faults", "Faults attributed to false sharing.",
		func(p *named) string { return fmt.Sprint(p.res.Sharing.Total.FalseFaults) })
	per(profiled, "dsmsim_point_false_sharing_fraction", "False fraction of sharing misses.",
		func(p *named) string { return fmt.Sprintf("%.3f", p.res.Sharing.FalseSharingFraction()) })
	// One two-label series per (point, component) of the recovered path.
	if len(critted) > 0 {
		const m = "dsmsim_point_critpath_component_seconds"
		fmt.Fprintf(w, "# HELP %s Critical-path time attributed to one component of the point's run.\n# TYPE %s gauge\n", m, m)
		for _, p := range critted {
			for c, t := range p.res.CritPath.Components {
				if t != 0 {
					fmt.Fprintf(w, "%s{point=%q,component=%q} %s\n", m, p.key, critpath.Component(c).String(), seconds(t))
				}
			}
		}
	}
}

// Serve exposes the registry at /metrics on addr (e.g. "localhost:9150"; a
// :0 port picks a free one). It returns the bound address and a shutdown
// function.
func (r *Registry) Serve(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}
