package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dsmsim/internal/apps"
	"dsmsim/internal/core"
	"dsmsim/internal/harness"
	"dsmsim/internal/sim"
	"dsmsim/internal/sweep"
)

// wantFlags is dsmrun's flag inventory: every name with its default. A
// flag added, dropped, renamed or re-defaulted fails here first; the
// README flag table is checked against the same FlagSet.
var wantFlags = []string{
	"app=lu", "block=4096", "cpuprofile=", "crit=false",
	"crit-top=5", "exp=", "fault-grid=", "faults=",
	"fork=false", "latency=false", "list=false", "memprofile=",
	"metrics-addr=", "metrics-linger=0s", "nodes=16",
	"notify=polling", "parallel=0", "prof=false", "prof-top=10",
	"project=", "protocol=hlrc", "record=", "sample-every=0s",
	"size=small", "static-homes=false", "trace=",
	"verify=true", "whatif=",
}

// flagInventory lists the FlagSet's "name=default" pairs in name order.
func flagInventory() []string {
	fs, _ := newCommand(io.Discard, io.Discard)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	return got
}

func TestFlagInventory(t *testing.T) {
	if got := flagInventory(); fmt.Sprint(got) != fmt.Sprint(wantFlags) {
		t.Fatalf("flag inventory changed:\n got %q\nwant %q", got, wantFlags)
	}
}

// doc reads one of the repository's top-level documents.
func doc(t *testing.T, name string) string {
	data, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestREADMEFlagTables: the README's "dsmrun flags" table is exactly the
// FlagSet, name and default.
func TestREADMEFlagTables(t *testing.T) {
	_, section, ok := strings.Cut(doc(t, "README.md"), "### dsmrun flags\n")
	if !ok {
		t.Fatal(`README.md has no "dsmrun flags" section`)
	}
	section, _, _ = strings.Cut(section, "\n##")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 3 && strings.HasPrefix(cells[1], " `-") {
			rows = append(rows, strings.Trim(cells[1], " `-")+"="+strings.Trim(cells[2], " `"))
		}
	}
	want := flagInventory()
	sort.Strings(rows)
	sort.Strings(want)
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Errorf("README flag table:\n got %q\nwant %q", rows, want)
	}
}

// TestDocsNameEveryExperiment keeps the prose in step with the registry:
// README.md shows what -list prints verbatim, DESIGN.md's per-experiment
// index names every entry (as `-exp NAME` or `NAME`), and EXPERIMENTS.md
// has a bullet for every experiment that is not one of the paper's tables
// or figures, which it discusses under their own headings.
func TestDocsNameEveryExperiment(t *testing.T) {
	var list bytes.Buffer
	if err := run([]string{"-list"}, &list, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc(t, "README.md"), "$ go run ./cmd/dsmrun -list\n"+list.String()+"```") {
		t.Errorf("README.md does not show the current `dsmrun -list` output:\n%s", list.String())
	}
	design, experiments := doc(t, "DESIGN.md"), doc(t, "EXPERIMENTS.md")
	for _, e := range harness.Experiments() {
		if !strings.Contains(design, "-exp "+e.Name+"`") && !strings.Contains(design, "`"+e.Name+"`") {
			t.Errorf("DESIGN.md's per-experiment index does not name %q", e.Name)
		}
		paper := strings.HasPrefix(e.Name, "table") || strings.HasPrefix(e.Name, "fig")
		if !paper && !strings.Contains(experiments, "* **"+e.Name+"**") {
			t.Errorf("EXPERIMENTS.md has no bullet for %q", e.Name)
		}
	}
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b))[:16] }

// dropForkLine removes the fork summary, the one stdout line that carries
// wall-clock time.
func dropForkLine(b []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("fork:")) {
			out = append(out, line...)
		}
	}
	return out
}

const grid = "none;lossy:drop=0.03,seed=5,start=6;jittery:jitter=30us,dup=0.01,seed=11,start=6"

// project returns dsmrun -project's table of the record file at path.
func project(t *testing.T, table, path string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run([]string{"-project", table, path}, &out, io.Discard); err != nil {
		t.Fatalf("-project %s: %v", table, err)
	}
	return out.Bytes()
}

// TestGolden pins what dsmrun writes — stdout, the progress stream and
// every CSV table of its record — to SHA-256 digests recorded at commit
// 8395aed, when each table was a file of its own: one
// single-configuration run under a fault plan with both profilers, one
// forked fault-grid sweep and one profiled sweep, the sweeps at -parallel
// 1 and 8. The single run's three observer tables were re-recorded when
// they moved onto the sweep's sink and gained its key columns. A want
// other than stdout and stderr names a table of -project.
func TestGolden(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		parallel []int
		want     map[string]string
	}{
		{"single",
			strings.Fields("-app lu -protocol hlrc -block 4096 -nodes 4 -faults drop=0.02,seed=3 -crit -prof -sample-every 200us"),
			[]int{0},
			map[string]string{"stdout": "3e65c4b764424885", "stderr": "e3b0c44298fc1c14", "prof": "56349065cde9e72a", "crit": "d0e3b91e2b61593b", "sample": "b7b0134d8072952d"}},
		{"forkgrid",
			append(strings.Fields("-app ocean-rowwise,fft -protocol sc,hlrc -block 1024,4096 -nodes 4 -size small "+
				"-fork -crit -sample-every 200us"),
				"-fault-grid", grid),
			[]int{1, 8},
			map[string]string{"stdout": "72f29a06d1900298", "stderr": "fbf06ae267370bd7", "run": "dcebc669e682b645", "crit": "d77f55dcb8dedf45", "sample": "6df11c2404dc67ff"}},
		{"profsweep",
			strings.Fields("-app lu -protocol sc,hlrc -block 1024 -nodes 4 -prof"),
			[]int{1, 8},
			map[string]string{"stdout": "dbd892fae7ab7589", "stderr": "2ab5ff2875f2421e", "run": "485878935e5e2978", "prof": "e8ea48702a3e5b40"}},
	}
	for _, c := range cases {
		for _, parallel := range c.parallel {
			record := filepath.Join(t.TempDir(), "runs.jsonl")
			args := append([]string{"-parallel", strconv.Itoa(parallel), "-record", record}, c.args...)
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if c.name == "forkgrid" && !bytes.Contains(stdout.Bytes(), []byte("served 24 forked runs")) {
				t.Errorf("forkgrid -parallel %d: forking did not engage:\n%s", parallel, stdout.Bytes())
			}
			for name, want := range c.want {
				var data []byte
				switch name {
				case "stdout":
					data = dropForkLine(stdout.Bytes())
				case "stderr":
					data = stderr.Bytes()
				default:
					data = project(t, name, record)
				}
				if got := digest(data); got != want {
					t.Errorf("%s -parallel %d: %s digest %s, want %s", c.name, parallel, name, got, want)
				}
			}
		}
	}
}

// TestGoldenTable3 pins everything one small experiment writes — the
// rendered table, the progress stream and all four CSV tables of its
// record — to SHA-256 digests recorded at commit 8395aed, at -parallel 1
// and 8. Its run record must be byte-identical at both settings and hold
// one line per run-table row plus one per sequential baseline (table3
// needs none).
func TestGoldenTable3(t *testing.T) {
	want := map[string]string{
		"stdout": "880c03ec9aee238e",
		"stderr": "63a6e407b0d25c28",
		"run":    "d4a67faf65b9e1a5",
		"prof":   "02000b2f4b67e264",
		"crit":   "dd9541d5e987f475",
		"sample": "eeae116b8634d1ae",
	}
	var records [][]byte
	for _, parallel := range []int{1, 8} {
		path := filepath.Join(t.TempDir(), "runs.jsonl")
		var stdout, stderr bytes.Buffer
		err := run([]string{"-exp", "table3", "-size", "small", "-nodes", "4",
			"-parallel", strconv.Itoa(parallel), "-prof", "-crit", "-sample-every", "200us", "-record", path}, &stdout, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{"stdout": digest(stdout.Bytes()), "stderr": digest(stderr.Bytes())}
		for _, table := range []string{"run", "prof", "crit", "sample"} {
			got[table] = digest(project(t, table, path))
		}
		for name, w := range want {
			if got[name] != w {
				t.Errorf("-parallel %d: %s digest %s, want %s", parallel, name, got[name], w)
			}
		}
		csv := project(t, "run", path)
		record, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, record)
		var runs, baselines int
		for _, line := range strings.Split(strings.TrimSpace(string(record)), "\n") {
			var r sweep.Record
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("-parallel %d: record line %q: %v", parallel, line, err)
			}
			if r.Point.Sequential {
				baselines++
			} else {
				runs++
			}
		}
		rows, seqs := strings.Count(string(csv), "\n")-1, strings.Count("\n"+stderr.String(), "\nseq ")
		if runs != rows || baselines != seqs {
			t.Errorf("-parallel %d: record holds %d runs and %d baselines, want %d (one per run-table row) and %d (one per seq progress line)",
				parallel, runs, baselines, rows, seqs)
		}
	}
	if !bytes.Equal(records[0], records[1]) {
		t.Error("-record differs between -parallel 1 and 8")
	}
}

// TestForkHealthyFirstGrid: -fork takes any -fault-grid, one whose first
// variant is the healthy machine included. Nothing in this grid is gated,
// so its healthy and ungated points run flat and the fork summary counts
// them; the tables render the first variant's runs.
func TestForkHealthyFirstGrid(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-exp", "table3", "-size", "small", "-nodes", "4",
		"-fork", "-fault-grid", "none;ungated:drop=0.01,seed=1"}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "fork: no runs forked") || !strings.Contains(stdout.String(), "; 24 points ran flat, 0 failed forks") {
		t.Fatalf("fork summary does not count the 2 x 12 flat points:\n%s", stdout.Bytes())
	}
	err = run([]string{"-exp", "table3", "-fork", "-faults", "drop=0.01,start=2"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-fork needs a -fault-grid") {
		t.Fatalf("-fork without a grid: err = %v", err)
	}
}

// TestSingleRunCSV: one selected configuration leaves the sweep's
// record — its baseline's line and its own — and two runs appended into
// one record file project with one header: every table holds the sweep's
// header, then the sweep's rows for that configuration once per run. (At
// 8395aed the single-run path never saw -csv and wrote no file.)
func TestSingleRunCSV(t *testing.T) {
	dir := t.TempDir()
	record := func(name string) string { return filepath.Join(dir, name+".jsonl") }
	args := func(name string, sel ...string) []string {
		return append([]string{"-app", "lu", "-nodes", "4", "-sample-every", "200us", "-prof", "-crit",
			"-record", record(name)}, sel...)
	}
	lines := func(data []byte) []string { return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") }
	for i := 0; i < 2; i++ {
		if err := run(args("one"), io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if err := run(args("sweep", "-protocol", "sc,hlrc"), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	// The sweep's records are the baseline, sc, then hlrc; each single run's
	// the baseline, then hlrc.
	read := func(name string) []string {
		data, err := os.ReadFile(record(name))
		if err != nil {
			t.Fatal(err)
		}
		return lines(data)
	}
	if s, o := read("sweep"), read("one"); len(s) != 3 || len(o) != 4 ||
		o[0] != o[2] || o[1] != o[3] || s[0] != o[0] || s[2] != o[1] {
		t.Fatalf("single-run record differs from the sweep's (%d and %d lines)", len(o), len(s))
	}
	for _, table := range []string{"run", "prof", "crit", "sample"} {
		swept := lines(project(t, table, record("sweep")))
		var rows []string
		for _, l := range swept[1:] {
			if strings.HasPrefix(l, "lu,hlrc,4096,polling,4,") {
				rows = append(rows, l)
			}
		}
		want := append(append([]string{swept[0]}, rows...), rows...)
		if got := lines(project(t, table, record("one"))); len(rows) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s table of two single runs:\n%s\nwant the sweep's header and hlrc rows twice:\n%s",
				table, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestProjectNeedsItsObserver: an observer's table of a record whose runs
// ran without that observer is an error naming the flag to re-run with,
// not an empty table. At 8395aed a profile writer without its profiler
// left an empty file behind a successful run.
func TestProjectNeedsItsObserver(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := run(strings.Fields("-app lu -nodes 2 -record "+path), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	for table, flag := range map[string]string{"prof": "-prof", "crit": "-crit", "sample": "-sample-every"} {
		var stdout bytes.Buffer
		err := run([]string{"-project", table, path}, &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "re-run with "+flag+")") || stdout.Len() != 0 {
			t.Errorf("-project %s: err = %v with %d bytes written, want an error naming %s", table, err, stdout.Len(), flag)
		}
	}
}

// TestProjectChromeNamesFileAndLine: -project chrome of a trace cut short
// or corrupted is an error naming the file and the line, with nothing on
// stdout.
func TestProjectChromeNamesFileAndLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := run(strings.Fields("-app lu -nodes 2 -trace "+path), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	third := len(lines[0]) + len(lines[1]) + len(lines[2])
	for name, c := range map[string]struct {
		data []byte
		line int
	}{
		"truncated": {data[:len(data)-3], len(lines) - 1},
		"corrupt":   {append(append(append([]byte(nil), data[:third]...), "      nonsense\n"...), data[third:]...), 4},
	} {
		bad := filepath.Join(t.TempDir(), name+".txt")
		if err := os.WriteFile(bad, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		err := run([]string{"-project", "chrome", bad}, &stdout, io.Discard)
		if want := fmt.Sprintf("%s: line %d: ", bad, c.line); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s trace: err = %v, want one starting %q", name, err, want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s trace: %d bytes on stdout", name, stdout.Len())
		}
	}
}

// expAll runs dsmrun -exp all at Small size on 4 nodes with args, recording
// into a fresh file, and returns its stdout, its stderr and the file's path.
func expAll(t *testing.T, args ...string) (stdout, stderr []byte, path string) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "runs.jsonl")
	var out, errs bytes.Buffer
	args = append([]string{"-exp", "all", "-size", "small", "-nodes", "4", "-record", path}, args...)
	if err := run(args, &out, &errs); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out.Bytes(), errs.Bytes(), path
}

// TestEveryExpRunLeavesARecord: under -exp all, every run and seq progress
// line has its record line, in the same order and for the same point, and
// the record file is byte-identical at -parallel 1 and 8. The record is
// all the tables need: -project all of it is the run's stdout — under a
// protocol override, a forked fault grid and a what-if scale too — and
// -project NAME is -exp NAME for every experiment. Projecting simulates
// nothing: a result's time edited in the file moves its speedup cell.
func TestEveryExpRunLeavesARecord(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment, twice")
	}
	var records [][]byte
	var stdout []byte
	for _, parallel := range []string{"1", "8"} {
		out, stderr, path := expAll(t, "-parallel", parallel)
		stdout = out
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, data)
		var progress []string
		for _, line := range strings.Split(string(stderr), "\n") {
			if strings.HasPrefix(line, "run ") || strings.HasPrefix(line, "seq ") {
				progress = append(progress, line)
			}
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		if len(lines) != len(progress) {
			t.Fatalf("-parallel %s: %d record lines for %d progress lines", parallel, len(lines), len(progress))
		}
		for i, line := range lines {
			var r sweep.Record
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			k := r.Point
			want := fmt.Sprintf("seq  %-18s T=%v", k.App, r.Result.Time)
			if !k.Sequential {
				want = fmt.Sprintf("run  %-18s %-5s %4dB %-9s T=%v", k.App, k.Protocol, k.Block, k.Notify, r.Result.Time)
			}
			if !strings.HasPrefix(progress[i], want) {
				t.Fatalf("-parallel %s: record %d is %s, progress line %q", parallel, i, k, progress[i])
			}
		}
	}
	if !bytes.Equal(records[0], records[1]) {
		t.Error("-record differs between -parallel 1 and 8")
	}

	path := filepath.Join(t.TempDir(), "all.jsonl")
	if err := os.WriteFile(path, records[0], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := project(t, "all", path); !bytes.Equal(got, stdout) {
		t.Errorf("-project all of the record:\n%s\nwant the run's stdout:\n%s", got, stdout)
	}
	for _, e := range harness.Experiments() {
		var want bytes.Buffer
		if err := run([]string{"-exp", e.Name, "-size", "small", "-nodes", "4"}, &want, io.Discard); err != nil {
			t.Fatal(err)
		}
		if got := project(t, e.Name, path); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("-project %s of the -exp all record:\n%s\nwant -exp %s:\n%s", e.Name, got, e.Name, want.Bytes())
		}
	}
	for _, args := range [][]string{
		{"-protocol", "sc,swlrc,hlrc,tlc"},
		{"-fault-grid", grid, "-fork"},
		{"-whatif", "lock=0.5"},
	} {
		out, _, rec := expAll(t, args...)
		// The fork summary carries wall time and is no table: it goes, with
		// the blank line that sets it apart.
		if i := bytes.Index(out, []byte("\nfork: ")); i >= 0 {
			out = out[:i]
		}
		if got := project(t, "all", rec); !bytes.Equal(got, out) {
			t.Errorf("%v: -project all of the record:\n%s\nwant the run's stdout:\n%s", args, got, out)
		}
	}

	// lu/sc/64 at twice its recorded time: Figure 1's lu sc row halves its
	// 64B speedup, and nothing else moves.
	lines := bytes.SplitAfter(records[0], []byte("\n"))
	lu := sweep.Key{App: "lu", Protocol: "sc", Block: 64, Nodes: 4}
	var seq, at sim.Time
	for i, line := range lines {
		var r sweep.Record
		if json.Unmarshal(line, &r) != nil {
			continue
		}
		switch r.Point {
		case sweep.Seq("lu"):
			seq = r.Result.Time
		case lu:
			at = r.Result.Time
			r.Result.Time *= 2
			edited, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = append(edited, '\n')
		}
	}
	edited := filepath.Join(t.TempDir(), "edited.jsonl")
	if err := os.WriteFile(edited, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	row := func(sp float64) string { return fmt.Sprintf("\n%-18s %-6s %8.2f ", "lu", "sc", sp) }
	before, after := string(project(t, "fig1", path)), string(project(t, "fig1", edited))
	sp := float64(seq) / float64(at)
	if !strings.Contains(before, row(sp)) || !strings.Contains(after, row(sp/2)) ||
		strings.Replace(before, row(sp), row(sp/2), 1) != after {
		t.Errorf("Figure 1 with lu/sc/64 at twice its time:\n%s\nwant only the cell %.2f to become %.2f in:\n%s", after, sp, sp/2, before)
	}
}

// TestProjectExpRefusals: -project renders a table only from records that
// agree on how their sweep was declared, hold every point the table reads
// and record no point twice with different results; an unknown name is
// refused, listing every projection, before the file is opened. A
// hand-made record says everything the table needs: the paper-size labels
// of table1 come from its size alone.
func TestProjectExpRefusals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	table3 := func(args ...string) {
		if err := run(append(strings.Fields("-exp table3 -size small -nodes 4 -record "+path), args...), io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	project := func(name, path string) (string, error) {
		var out bytes.Buffer
		err := run([]string{"-project", name, path}, &out, io.Discard)
		return out.String(), err
	}
	table3()
	if out, err := project("all", path); err == nil || out != "" || !strings.Contains(err.Error(),
		"table1: harness: lu/seq is not among the declared points") {
		t.Errorf("-project all of a table3 record wrote %q; err = %v, want nothing and the first missing point named", out, err)
	}
	table3("-whatif", "lock=0.5")
	if _, err := project("table3", path); err == nil || !strings.Contains(err.Error(),
		`record line 13 was declared sweep.Declaration{Size:0, WhatIf:"lock=0.5", Faults:"", Protocols:[]string(nil)}, line 1 sweep.Declaration{Size:0, WhatIf:"", Faults:"", Protocols:[]string(nil)}`) {
		t.Errorf("-project table3 of records declared two ways: err = %v, want one naming line 13 and both what-if scales", err)
	}
	_, err := project("tablex", filepath.Join(t.TempDir(), "no-such-file.jsonl"))
	for _, e := range harness.Experiments() {
		if err == nil || !strings.Contains(err.Error(), ", "+e.Name+",") {
			t.Errorf("-project tablex: err = %v, want one listing %s", err, e.Name)
		}
	}
	if err == nil || !strings.HasSuffix(err.Error(), ", critpath, all") || strings.Contains(err.Error(), "no-such-file") {
		t.Errorf("-project tablex: err = %v, want the list to end with all, and the file unopened", err)
	}

	// A point recorded twice renders only if both lines hold one result:
	// -static-homes is no declared setting, so only the results tell the
	// two table4 runs apart.
	table4 := func(path string, args ...string) string {
		var out bytes.Buffer
		if err := run(append(strings.Fields("-exp table4 -size small -nodes 4 -record "+path), args...), &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	twice := filepath.Join(t.TempDir(), "twice.jsonl")
	want := table4(twice)
	table4(twice)
	if out, err := project("table4", twice); err != nil || out != want {
		t.Errorf("-project table4 of one command appended twice (%v):\n%s\nwant what -exp printed:\n%s", err, out, want)
	}
	mixed := filepath.Join(t.TempDir(), "mixed.jsonl")
	table4(mixed)
	table4(mixed, "-static-homes")
	if out, err := project("table4", mixed); err == nil || out != "" || !strings.Contains(err.Error(),
		"record lines 1 and 13 hold different results for ocean-rowwise/sc/64/polling/4p") {
		t.Errorf("-project table4 of runs with and without -static-homes wrote %q; err = %v, want nothing and both lines named", out, err)
	}

	var paper bytes.Buffer
	for _, app := range apps.Originals() {
		line, err := json.Marshal(sweep.Record{V: sweep.RecordVersion, Declaration: sweep.Declaration{Size: apps.Paper},
			Point: sweep.Seq(app), Result: &core.Result{Time: 3 * sim.Second}})
		if err != nil {
			t.Fatal(err)
		}
		paper.Write(append(line, '\n'))
	}
	path = filepath.Join(t.TempDir(), "paper.jsonl")
	if err := os.WriteFile(path, paper.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := project("table1", path); err != nil || !strings.Contains(out, "ocean-original     514×514 grid") ||
		!strings.Contains(out, "3.000s") {
		t.Errorf("-project table1 of paper-size baselines (%v):\n%s\nwant the paper's problem sizes", err, out)
	}
}

// TestExpRunSettings: the command line's run settings reach every
// experiment's runs. A node-indexed plan on scaling's 1-node machine fails
// naming the point; degradation's own plans override the command line's.
func TestExpRunSettings(t *testing.T) {
	exp := func(args ...string) (string, error) {
		var stdout bytes.Buffer
		err := run(append([]string{"-size", "small", "-nodes", "4"}, args...), &stdout, io.Discard)
		return stdout.String(), err
	}
	if _, err := exp("-exp", "scaling", "-faults", "straggler=9x2"); err == nil || !strings.Contains(err.Error(), "/hlrc/4096/polling/1p: ") {
		t.Errorf("-exp scaling -faults straggler=9x2: err = %v, want one naming a 1-node point", err)
	}
	plain, err := exp("-exp", "degradation")
	if err != nil {
		t.Fatal(err)
	}
	if lossy, err := exp("-exp", "degradation", "-faults", "drop=0.05,seed=2"); err != nil || lossy != plain {
		t.Errorf("-exp degradation -faults drop=0.05,seed=2 (%v):\n%s\nwant the plain table:\n%s", err, lossy, plain)
	}
}

// TestRefusedSelections: a selector that names nothing, a fault plan
// given both as -faults and as -fault-grid, a selector beside -exp, a
// -nodes outside 1..1024 in any kind of run, a -size other than small or
// paper, or a flag that the selected kind of run would ignore is an error
// naming the flags involved — not a sweep over some default.
func TestRefusedSelections(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-app= -protocol sc -block 4096 -nodes 2", "-app"},
		{"-protocol , -nodes 2", "-protocol"},
		{"-block= -nodes 2", "-block"},
		{"-notify= -nodes 2", "-notify"},
		{"-faults drop=0.01 -fault-grid a:drop=0.02 -nodes 2", "-fault-grid"},
		{"-fork -faults drop=0.01,start=2 -nodes 2", "-fork needs a -fault-grid"},
		{"-exp table3 -app lu -nodes 2", "-exp and -app"},
		{"-exp table3 -block 64 -nodes 2", "-exp and -block"},
		{"-exp table3 -notify interrupt -nodes 2", "-exp and -notify"},
		{"-prof-top 3 -protocol sc,hlrc -nodes 2", "-prof-top"},
		{"-crit-top 3 -exp table3 -nodes 2", "-crit-top (-exp table3"},
		{"-metrics-linger 1s -protocol sc,hlrc -nodes 2", "-metrics-linger needs -metrics-addr"},
		{"-latency -nodes 2", "only a sweep takes -latency"},
		{"-exp table3 -protocol nope -nodes 2", "unknown protocol \"nope\""},
		{"-app lu -nodes 0", "-nodes 0: want 1 to 1024"},
		{"-app lu -protocol sc,hlrc -nodes 0", "-nodes 0: want 1 to 1024"},
		{"-exp table3 -nodes 0", "-nodes 0: want 1 to 1024"},
		{"-nodes 1025", "-nodes 1025: want 1 to 1024"},
		{"-size bogus -app lu -nodes 2", `-size "bogus": want small or paper`},
		{"-project run -nodes 2 runs.jsonl", "no other flag (flags: -nodes -project; files: 1)"},
		{"-project run", "-project takes one record FILE and no other flag (flags: -project; files: 0)"},
		{"-project run a.jsonl b.jsonl", "(flags: -project; files: 2)"},
		{"-project chrom no-such-file.txt", `-project "chrom": want one of run, prof, crit, sample, chrome`},
	} {
		var stdout bytes.Buffer
		err := run(strings.Fields(c.args), &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("dsmrun %s: err = %v, want one naming %s", c.args, err, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("dsmrun %s ran:\n%s", c.args, stdout.Bytes())
		}
	}
}

// TestBadPointRunsNothing: a point that cannot run — a block size that is
// no power of two, an unknown app — fails the command before any other
// point runs, its baseline included: no progress line, no statistics, and
// an empty -record.
func TestBadPointRunsNothing(t *testing.T) {
	for _, args := range []string{"-app lu -block 100", "-app lu,nonesuch -protocol sc"} {
		record := filepath.Join(t.TempDir(), "runs.jsonl")
		var stdout, stderr bytes.Buffer
		err := run(append(strings.Fields(args), "-nodes", "4", "-record", record), &stdout, &stderr)
		data, rerr := os.ReadFile(record)
		if err == nil || rerr != nil || len(data) != 0 || stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("dsmrun %s: err %v; record %d bytes (%v), stdout %q, stderr %q; want an error and nothing written",
				args, err, len(data), rerr, stdout.String(), stderr.String())
		}
	}
}

// TestGridStraggler: a -fault-grid variant takes straggler clauses like
// -faults does — the variant whose node 0 computes 4x slower takes longer
// than the same variant without it.
func TestGridStraggler(t *testing.T) {
	record := filepath.Join(t.TempDir(), "runs.jsonl")
	args := []string{"-app", "lu", "-protocol", "hlrc", "-nodes", "4", "-record", record,
		"-fault-grid", "plain:drop=0.01,seed=1;slow:drop=0.01,seed=1,straggler=0x4"}
	if err := run(args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	times := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(string(project(t, "run", record))), "\n")[1:] {
		cols := strings.Split(line, ",")
		ns, err := strconv.ParseInt(cols[5], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		times[cols[len(cols)-1]] = ns
	}
	if len(times) != 2 || times["slow"] <= times["plain"] {
		t.Fatalf("time_ns by variant %v: want slow > plain", times)
	}
}

// TestSingleRunLimit: a single run takes the sweep's virtual-time limit. At
// 9d29dfc this partition ran to 200000s and exited 0, while the same
// flags over two apps failed on the limit.
func TestSingleRunLimit(t *testing.T) {
	err := run(strings.Fields("-app lu -protocol hlrc -nodes 4 -faults partition=0-1@0:200000s"), io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "virtual time limit 100000.000s exceeded") || !strings.Contains(err.Error(), "1→0") {
		t.Fatalf("err = %v, want the sweep's limit naming the unacked link 1→0", err)
	}
}

// TestWhatIfRecord: every run a single -whatif makes leaves a record line —
// the baseline, the point, then the rescaled twin carrying its setting —
// byte-identical at -parallel 1 and 8. At 9d29dfc the three runs left
// one line.
func TestWhatIfRecord(t *testing.T) {
	var records [][]byte
	for _, parallel := range []string{"1", "8"} {
		path := filepath.Join(t.TempDir(), "runs.jsonl")
		args := []string{"-app", "lu", "-nodes", "4", "-whatif", "msg=0.5", "-parallel", parallel, "-record", path}
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, data)
		var points []sweep.Key
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			var r sweep.Record
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			points = append(points, r.Point)
		}
		point := sweep.Key{App: "lu", Protocol: "hlrc", Block: 4096, Nodes: 4}
		twin := point
		twin.WhatIf = "msg=0.5"
		if want := []sweep.Key{sweep.Seq("lu"), point, twin}; fmt.Sprint(points) != fmt.Sprint(want) {
			t.Fatalf("-parallel %s: record lines for %v, want %v", parallel, points, want)
		}
		if !strings.Contains(string(data), `"WhatIf":"msg=0.5"`) {
			t.Fatalf("-parallel %s: the twin's record line does not carry its setting", parallel)
		}
	}
	if !bytes.Equal(records[0], records[1]) {
		t.Error("-record differs between -parallel 1 and 8")
	}
}

// TestStaticHomesSweep: -static-homes describes every run of a sweep, so
// no point's record shows a home migration (plain lu migrates 16 homes).
func TestStaticHomesSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := run(strings.Fields("-app lu -protocol sc,hlrc -nodes 4 -static-homes -record "+path), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var points int
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var r sweep.Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		if !r.Point.Sequential {
			points++
		}
		if m := r.Result.Total.HomeMigrations; m != 0 {
			t.Errorf("%s: %d home migrations under -static-homes", r.Point, m)
		}
	}
	if points != 2 {
		t.Fatalf("%d point record lines, want 2", points)
	}
}

// TestSingleRunTraceDigests pins the bytes of a single run's -trace and of
// its -project chrome JSON, alone and beside -whatif (whose baseline and
// twin are never traced), to SHA-256 digests recorded at 9d29dfc, before
// single runs went through the sweep engine (the JSON digests when a run
// wrote the JSON itself).
func TestSingleRunTraceDigests(t *testing.T) {
	for _, c := range []struct {
		extra      []string
		line, json string
	}{
		{nil, "b189119705967935", "edf91e8c1d9dd416"},
		{[]string{"-whatif", "msg=0.5"}, "a1b0ebfed47f5019", "1e7d94698bb1c804"},
	} {
		line := filepath.Join(t.TempDir(), "trace.txt")
		args := append(strings.Fields("-app lu -protocol hlrc -block 4096 -nodes 4 -trace "+line), c.extra...)
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(line)
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := run([]string{"-project", "chrome", line}, &js, io.Discard); err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			name string
			data []byte
			want string
		}{{"-trace", data, c.line}, {"-project chrome", js.Bytes(), c.json}} {
			if got := digest(f.data); got != f.want {
				t.Errorf("%v: %s digest %s, want %s", c.extra, f.name, got, f.want)
			}
		}
	}
}
