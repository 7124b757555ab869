package sweep

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"dsmsim/internal/core"
	"dsmsim/internal/critpath"
	"dsmsim/internal/network"
	"dsmsim/internal/shareprof"
	"dsmsim/internal/sim"
	"dsmsim/internal/stats"
)

// point4 is the key of one 4-node polling point.
func point4(app, protocol string, block int) Key {
	return Key{App: app, Protocol: protocol, Block: block, Notify: network.Polling, Nodes: 4}
}

// runResult builds a finished run's result with the fields /metrics reads.
func runResult(t sim.Time, rf, wf, msgs, bytes int64) *core.Result {
	return &core.Result{Time: t, Total: stats.Node{ReadFaults: rf, WriteFaults: wf}, NetMsgs: msgs, NetBytes: bytes}
}

// look feeds the registry one run of k, the way a sweep's runKey does.
func look(r *Registry, k Key, wall time.Duration, res *core.Result) {
	r.started(k)
	r.finished(k, wall, res)
}

// elapsedLine matches the one wall-clock-dependent line of the exposition.
var elapsedLine = regexp.MustCompile(`(?m)^dsmsim_sweep_elapsed_seconds .*$`)

// TestRegistryPrometheusDigest pins the /metrics body of a fixed set of
// distinct points — fixed walls, a profiled point, one run with both
// profilers, a baseline, one run still going and fork stats set — to a
// SHA-256. The elapsed-time value is masked; everything else, the ETA
// included, is a function of the inputs.
func TestRegistryPrometheusDigest(t *testing.T) {
	const want = "3d964a306e8cd0ee5127951fe2f2e8a9b14e2e7459f66a02753d6683ea94b7bc"
	r := NewRegistry()
	lossy := point4("water-nsquared", "hlrc", 1024)
	lossy.Fault = "lossy"
	barnes := point4("barnes-original", "sc", 64)
	r.expect(point4("lu", "hlrc", 256), point4("fft", "sc", 64), point4("ocean-rowwise", "swlrc", 4096),
		Seq("lu"), lossy, barnes)

	fft := runResult(1250*sim.Microsecond, 40, 12, 90, 5760)
	fft.Sharing = &shareprof.Report{Total: shareprof.RegionStats{TrueFaults: 7, FalseFaults: 3}}
	ocean := runResult(4750*sim.Microsecond, 3, 2, 17, 65536)
	ocean.Sharing = &shareprof.Report{Total: shareprof.RegionStats{TrueFaults: 1, FalseFaults: 1}}
	ocean.CritPath = &critpath.Report{}
	ocean.CritPath.Components[0] = 3 * sim.Millisecond
	ocean.CritPath.Components[2] = 1500 * sim.Microsecond
	ocean.CritPath.Components[critpath.NumComponents-1] = 250 * sim.Microsecond

	look(r, point4("lu", "hlrc", 256), 120*time.Millisecond, runResult(2500*sim.Millisecond, 10, 5, 300, 1<<20))
	look(r, point4("fft", "sc", 64), 75*time.Millisecond, fft)
	look(r, point4("ocean-rowwise", "swlrc", 4096), 40*time.Millisecond, ocean)
	look(r, Seq("lu"), time.Millisecond, &core.Result{Time: sim.Second})
	look(r, lossy, 2500*time.Millisecond, runResult(33*sim.Millisecond, 1234, 567, 8910, 123456))
	r.started(barnes)
	r.setFork(ForkStats{Prefixes: 2, ForkedRuns: 7, SavedWall: 1500 * time.Millisecond})

	var b strings.Builder
	r.WritePrometheus(&b)
	body := elapsedLine.ReplaceAllString(b.String(), "dsmsim_sweep_elapsed_seconds X")
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(body))); got != want {
		t.Fatalf("/metrics digest %s, want %s:\n%s", got, want, body)
	}
}

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	k := point4("lu", "sc", 64)
	r.expect(k, Seq("lu"), point4("lu", "sc", 256), point4("lu", "sc", 1024))
	res := runResult(2*sim.Second, 10, 5, 0, 1<<20)
	res.Sharing = &shareprof.Report{Total: shareprof.RegionStats{TrueFaults: 7, FalseFaults: 3}}
	look(r, k, 50*time.Millisecond, res)
	crit := runResult(sim.Second, 0, 0, 0, 0)
	crit.CritPath = &critpath.Report{}
	crit.CritPath.Components[critpath.Compute] = sim.Second
	look(r, Seq("lu"), time.Millisecond, crit)

	var buf strings.Builder
	r.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		"dsmsim_sweep_points_total 4\n",
		"dsmsim_sweep_points_completed 2\n",
		"dsmsim_sweep_points_running 0\n",
		"dsmsim_sweep_eta_seconds 0.051\n",
		`dsmsim_point_wall_seconds{point="lu/sc/64/polling/4p"} 0.050` + "\n",
		`dsmsim_point_read_faults{point="lu/sc/64/polling/4p"} 10` + "\n",
		`dsmsim_point_true_sharing_faults{point="lu/sc/64/polling/4p"} 7` + "\n",
		`dsmsim_point_false_sharing_faults{point="lu/sc/64/polling/4p"} 3` + "\n",
		`dsmsim_point_false_sharing_fraction{point="lu/sc/64/polling/4p"} 0.300` + "\n",
		// A run with only the critical-path profiler still exports its path.
		`dsmsim_point_critpath_component_seconds{point="lu/seq",component="compute"} 1.000000` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus text missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "dsmsim_sweep_fork_") || strings.Contains(text, `sharing_faults{point="lu/seq"}`) {
		t.Errorf("series for an observer that was off:\n%s", text)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 {
			t.Errorf("malformed metric line %q", line)
		}
		if seen[parts[0]] {
			t.Errorf("series %s repeats", parts[0])
		}
		seen[parts[0]] = true
	}
}

func TestRegistryServe(t *testing.T) {
	r := NewRegistry()
	look(r, point4("fft", "hlrc", 1024), time.Millisecond, runResult(sim.Second, 0, 0, 0, 0))
	addr, stop, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "dsmsim_sweep_points_completed 1\n") {
		t.Errorf("/metrics: status %d, body:\n%s", code, body)
	}
	for _, path := range []string{"/progress", "/debug/vars"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 (/metrics is the one endpoint)", path, code)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 8; i++ {
				k := point4(fmt.Sprintf("app%d", w*8+i), "sc", 64)
				r.expect(k)
				look(r, k, time.Microsecond, runResult(1, 0, 0, 0, 0))
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	var buf strings.Builder
	r.WritePrometheus(&buf)
	for _, want := range []string{"dsmsim_sweep_points_total 64\n", "dsmsim_sweep_points_completed 64\n",
		"dsmsim_sweep_points_running 0\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("after 64 concurrent points, /metrics lacks %q", want)
		}
	}
}
