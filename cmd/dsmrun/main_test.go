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
)

// wantFlags is dsmrun's flag inventory: every name with its default. A
// flag added, dropped, renamed or re-defaulted fails here first; the
// README flag tables are checked against the same FlagSet.
var wantFlags = []string{
	"app=lu", "block=4096", "cpuprofile=", "crit=false", "crit-csv=",
	"crit-top=5", "csv=", "fault-grid=", "fault-seed=0", "faults=",
	"fork=false", "fork-warmup=0", "memprofile=", "metrics-addr=", "nodes=16",
	"notify=polling", "parallel=0", "prof=false", "prof-csv=", "prof-top=10",
	"protocol=hlrc", "record=", "sample-csv=", "sample-every=0s",
	"size=small", "static-homes=false", "straggler=", "trace=", "trace-json=",
	"verify=true", "whatif=",
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
	all := append(shared, readmeFlags(t, "dsmrun only")...)
	want := append([]string(nil), wantFlags...)
	sort.Strings(all)
	sort.Strings(want)
	if fmt.Sprint(all) != fmt.Sprint(want) {
		t.Errorf("README shared + dsmrun-only tables:\n got %q\nwant %q", all, want)
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

const grid = "none;lossy:drop=0.03,seed=5;jittery:jitter=30us,dup=0.01,seed=11"

// TestGolden pins what dsmrun writes — stdout, the progress stream and
// every CSV file — to SHA-256 digests recorded at commit 8395aed: one
// single-configuration run under a fault plan with both profilers, one
// forked fault-grid sweep and one profiled sweep, the sweeps at
// -parallel 1 and 8. An argument ending in ".csv" names an output file.
func TestGolden(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		parallel []int
		want     map[string]string
	}{
		{"single",
			strings.Fields("-app lu -protocol hlrc -block 4096 -nodes 4 -faults drop=0.02,seed=3 -crit -prof " +
				"-prof-csv prof.csv -crit-csv crit.csv -sample-every 200us -sample-csv sample.csv"),
			[]int{0},
			map[string]string{"stdout": "3e65c4b764424885", "stderr": "e3b0c44298fc1c14", "prof.csv": "40ad697048e700b3", "crit.csv": "4a3d0be68f76eaa3", "sample.csv": "36142ff87526a1ef"}},
		{"forkgrid",
			append(strings.Fields("-app ocean-rowwise,fft -protocol sc,hlrc -block 1024,4096 -nodes 4 -size small "+
				"-fork -fork-warmup 6 -csv runs.csv -crit-csv crit.csv -sample-every 200us -sample-csv sample.csv"),
				"-fault-grid", grid),
			[]int{1, 8},
			map[string]string{"stdout": "72f29a06d1900298", "stderr": "fbf06ae267370bd7", "runs.csv": "dcebc669e682b645", "crit.csv": "d77f55dcb8dedf45", "sample.csv": "6df11c2404dc67ff"}},
		{"profsweep",
			strings.Fields("-app lu -protocol sc,hlrc -block 1024 -nodes 4 -csv runs.csv -prof-csv prof.csv"),
			[]int{1, 8},
			map[string]string{"stdout": "dbd892fae7ab7589", "stderr": "2ab5ff2875f2421e", "runs.csv": "485878935e5e2978", "prof.csv": "e8ea48702a3e5b40"}},
	}
	for _, c := range cases {
		for _, parallel := range c.parallel {
			dir := t.TempDir()
			args := []string{"-parallel", strconv.Itoa(parallel)}
			for _, a := range c.args {
				if strings.HasSuffix(a, ".csv") {
					a = filepath.Join(dir, a)
				}
				args = append(args, a)
			}
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
					var err error
					if data, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
				}
				if got := digest(data); got != want {
					t.Errorf("%s -parallel %d: %s digest %s, want %s", c.name, parallel, name, got, want)
				}
			}
		}
	}
}

// TestSingleRunCSV: one selected configuration writes its CSV row and its
// record through the sweep's sink — header plus one row, no second header
// on a re-run, and the same row and record line the sweep writes for that
// configuration. (At 8395aed the single-run path never saw -csv and wrote
// no file.)
func TestSingleRunCSV(t *testing.T) {
	dir := t.TempDir()
	one, swept := filepath.Join(dir, "one.csv"), filepath.Join(dir, "sweep.csv")
	oneRec, sweptRec := filepath.Join(dir, "one.jsonl"), filepath.Join(dir, "sweep.jsonl")
	lines := func(path string) []string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	}
	for i := 1; i <= 2; i++ {
		if err := run([]string{"-app", "lu", "-nodes", "4", "-csv", one, "-record", oneRec}, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		got := lines(one)
		if len(got) != 1+i || !strings.HasPrefix(got[0], "app,protocol,") || !strings.HasPrefix(got[i], "lu,hlrc,4096,polling,4,") {
			t.Fatalf("after run %d: want header + %d record(s), got:\n%s", i, i, strings.Join(got, "\n"))
		}
		if i == 2 && got[1] != got[2] {
			t.Fatalf("identical runs wrote different records:\n%s\n%s", got[1], got[2])
		}
	}
	if err := run([]string{"-app", "lu", "-protocol", "sc,hlrc", "-nodes", "4", "-csv", swept, "-record", sweptRec}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if s, o := lines(swept), lines(one); s[0] != o[0] || s[2] != o[1] {
		t.Fatalf("single-run CSV differs from the sweep's:\n%s\n%s\nvs\n%s\n%s", o[0], o[1], s[0], s[2])
	}
	// The sweep's records are the baseline, sc, then hlrc.
	if s, o := lines(sweptRec), lines(oneRec); len(s) != 3 || len(o) != 2 || o[0] != o[1] || s[2] != o[0] {
		t.Fatalf("single-run record differs from the sweep's (%d and %d lines)", len(o), len(s))
	}
}
