package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dsmsim/internal/cliflags"
	"dsmsim/internal/harness"
)

// wantFlags is dsmbench's flag inventory: every name with its default.
// A flag added, dropped, renamed or re-defaulted fails here first; the
// README flag tables are checked against the same FlagSet.
var wantFlags = []string{
	"cpuprofile=", "crit=false", "crit-csv=", "csv=", "exp=all",
	"fault-grid=", "faults=", "fork=false", "latency=false",
	"list=false", "memprofile=", "metrics-addr=", "metrics-linger=0s",
	"nodes=16", "parallel=0", "prof=false", "prof-csv=", "progress=true",
	"protocol=", "sample-csv=", "sample-every=0s", "size=small",
	"verify=false", "whatif=",
}

func TestFlagInventory(t *testing.T) {
	fs, _ := newCommand(io.Discard, io.Discard)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if fmt.Sprint(got) != fmt.Sprint(wantFlags) {
		t.Fatalf("flag inventory changed:\n got %q\nwant %q", got, wantFlags)
	}
}

// readmeFlags returns the "name=default" rows of the README flag table
// under the given "### " heading.
func readmeFlags(t *testing.T, heading string) []string {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "### "+heading+"\n")
	if !ok {
		t.Fatalf("README.md has no %q section", heading)
	}
	section, _, _ = strings.Cut(section, "\n##")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 3 && strings.HasPrefix(cells[1], " `-") {
			rows = append(rows, strings.Trim(cells[1], " `-")+"="+strings.Trim(cells[2], " `"))
		}
	}
	return rows
}

// TestREADMEFlagTables: the README's shared table plus this CLI's own are
// exactly the flag inventory, and the shared table is exactly what
// cliflags registers.
func TestREADMEFlagTables(t *testing.T) {
	shared := readmeFlags(t, "Flags shared by dsmrun and dsmbench")
	var registered []string
	sfs := flag.NewFlagSet("shared", flag.ContinueOnError)
	cliflags.Register(sfs)
	sfs.VisitAll(func(f *flag.Flag) { registered = append(registered, f.Name+"="+f.DefValue) })
	sort.Strings(shared)
	sort.Strings(registered)
	if fmt.Sprint(shared) != fmt.Sprint(registered) {
		t.Errorf("README shared-flag table:\n got %q\nwant %q", shared, registered)
	}
	all := append(shared, readmeFlags(t, "dsmbench only")...)
	want := append([]string(nil), wantFlags...)
	sort.Strings(all)
	sort.Strings(want)
	if fmt.Sprint(all) != fmt.Sprint(want) {
		t.Errorf("README shared + dsmbench-only tables:\n got %q\nwant %q", all, want)
	}
}

// TestDocsNameEveryExperiment keeps the prose in step with the registry:
// README.md shows what -list prints verbatim, DESIGN.md's per-experiment
// index names every entry (as `-exp NAME` or `NAME`), and EXPERIMENTS.md
// has a bullet for every experiment that is not one of the paper's tables
// or figures, which it discusses under their own headings.
func TestDocsNameEveryExperiment(t *testing.T) {
	doc := func(name string) string {
		data, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	var list bytes.Buffer
	if err := run([]string{"-list"}, &list, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc("README.md"), "$ go run ./cmd/dsmbench -list\n"+list.String()+"```") {
		t.Errorf("README.md does not show the current `dsmbench -list` output:\n%s", list.String())
	}
	design, experiments := doc("DESIGN.md"), doc("EXPERIMENTS.md")
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

// TestGoldenTable3 pins everything one small dsmbench invocation writes —
// the rendered table, the progress stream and all four CSV files — to
// SHA-256 digests recorded at commit 8395aed, at -parallel 1 and 8.
func TestGoldenTable3(t *testing.T) {
	want := map[string]string{
		"stdout":     "880c03ec9aee238e",
		"stderr":     "63a6e407b0d25c28",
		"runs.csv":   "d4a67faf65b9e1a5",
		"prof.csv":   "02000b2f4b67e264",
		"crit.csv":   "dd9541d5e987f475",
		"sample.csv": "eeae116b8634d1ae",
	}
	for _, parallel := range []int{1, 8} {
		dir := t.TempDir()
		file := func(name string) string { return filepath.Join(dir, name) }
		var stdout, stderr bytes.Buffer
		err := run([]string{"-exp", "table3", "-size", "small", "-nodes", "4",
			"-parallel", strconv.Itoa(parallel),
			"-csv", file("runs.csv"), "-prof-csv", file("prof.csv"), "-crit-csv", file("crit.csv"),
			"-sample-every", "200us", "-sample-csv", file("sample.csv")}, &stdout, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{"stdout": digest(stdout.Bytes()), "stderr": digest(stderr.Bytes())}
		for name := range want {
			if filepath.Ext(name) == ".csv" {
				data, err := os.ReadFile(file(name))
				if err != nil {
					t.Fatal(err)
				}
				got[name] = digest(data)
			}
		}
		for name, w := range want {
			if got[name] != w {
				t.Errorf("-parallel %d: %s digest %s, want %s", parallel, name, got[name], w)
			}
		}
	}
}

// TestForkHealthyFirstGrid: -fork takes any -fault-grid, one whose first
// variant is the healthy machine included. Nothing in this grid is gated,
// so its healthy and ungated points run flat and the fork summary counts
// them; the tables render the first variant's runs.
func TestForkHealthyFirstGrid(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-exp", "table3", "-size", "small", "-nodes", "4", "-progress=false",
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
