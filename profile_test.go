package dsmsim_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"dsmsim"
	"dsmsim/internal/sweep"
)

// TestShareProfileNoPerturbation is the pay-for-use contract: attaching
// the profiler changes nothing about a run except Result.Sharing — the
// clock, every counter, the traffic totals and the phase breakdown are
// bit-identical for every protocol at both granularity extremes.
func TestShareProfileNoPerturbation(t *testing.T) {
	ctx := context.Background()
	for _, proto := range []string{dsmsim.SC, dsmsim.SWLRC, dsmsim.HLRC} {
		for _, block := range []int{64, 4096} {
			cfg := dsmsim.Config{Nodes: 8, BlockSize: block, Protocol: proto}
			plain, err := dsmsim.StartApp(ctx, cfg, "lu", dsmsim.Small)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := dsmsim.StartApp(ctx, cfg, "lu", dsmsim.Small, dsmsim.WithShareProfile())
			if err != nil {
				t.Fatal(err)
			}
			if prof.Sharing == nil {
				t.Fatalf("%s/%d: no sharing report", proto, block)
			}
			if plain.Sharing != nil {
				t.Fatalf("%s/%d: unprofiled run grew a sharing report", proto, block)
			}
			if plain.Time != prof.Time {
				t.Errorf("%s/%d: clock perturbed: %v vs %v", proto, block, plain.Time, prof.Time)
			}
			if !reflect.DeepEqual(plain.Total, prof.Total) || !reflect.DeepEqual(plain.PerNode, prof.PerNode) {
				t.Errorf("%s/%d: node statistics perturbed", proto, block)
			}
			if plain.NetMsgs != prof.NetMsgs || plain.NetBytes != prof.NetBytes {
				t.Errorf("%s/%d: traffic perturbed", proto, block)
			}
			if !reflect.DeepEqual(plain.Phases, prof.Phases) {
				t.Errorf("%s/%d: phase breakdown perturbed", proto, block)
			}
			// The attribution partitions the fault count exactly.
			tot := prof.Sharing.Total
			if sum := tot.ColdFaults + tot.TrueFaults + tot.FalseFaults + tot.UpgradeFaults; sum != tot.Faults() {
				t.Errorf("%s/%d: verdicts sum to %d, faults %d", proto, block, sum, tot.Faults())
			}
		}
	}
}

// TestFalseSharingMonotonic is the acceptance check from the paper's §5
// granularity story: for block-structured applications the false-sharing
// fraction of sharing misses must not decrease as blocks coarsen from 64B
// to 4096B.
func TestFalseSharingMonotonic(t *testing.T) {
	ctx := context.Background()
	for _, app := range []string{"volrend-rowwise", "lu"} {
		prev := -1.0
		for _, block := range dsmsim.Granularities {
			cfg := dsmsim.Config{Nodes: 16, BlockSize: block, Protocol: dsmsim.HLRC}
			res, err := dsmsim.StartApp(ctx, cfg, app, dsmsim.Small, dsmsim.WithShareProfile())
			if err != nil {
				t.Fatal(err)
			}
			f := res.Sharing.FalseSharingFraction()
			if f < prev {
				t.Errorf("%s: false-sharing fraction fell from %.3f to %.3f at %dB", app, prev, f, block)
			}
			prev = f
		}
		if prev <= 0 {
			t.Errorf("%s: no false sharing observed at 4096B", app)
		}
	}
}

// TestProfCSVParallelDeterminism extends the sweep determinism guarantee
// to the profiler's table: the prof table projected from the run records
// is byte-identical at any parallelism.
func TestProfCSVParallelDeterminism(t *testing.T) {
	spec := dsmsim.SweepSpec{
		Apps:          []string{"lu", "volrend-original"},
		Protocols:     []string{dsmsim.SC, dsmsim.HLRC},
		Granularities: []int{256, 4096},
		Nodes:         4,
		Size:          dsmsim.Small,
	}
	run := func(workers int) string {
		var rb bytes.Buffer
		_, err := dsmsim.Sweep(context.Background(), spec,
			dsmsim.WithParallelism(workers),
			dsmsim.WithShareProfile(), dsmsim.WithRecord(&rb))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := sweep.ReadRecords(&rb)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sweep.Project(&buf, "prof", recs); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial, parallel := run(1), run(8)
	if serial != parallel {
		t.Fatalf("prof CSV diverged:\n-- serial --\n%s-- parallel --\n%s", serial, parallel)
	}
	lines := strings.Split(strings.TrimSuffix(serial, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "app,protocol,block,notify,nodes,region,") {
		t.Fatalf("bad header: %q", lines[0])
	}
	// 8 matrix runs, each at least a "(total)" row.
	if len(lines) < 1+8 {
		t.Fatalf("only %d CSV lines", len(lines))
	}
	if !strings.Contains(serial, ",(total),") {
		t.Fatal("missing per-run total rows")
	}
}

// TestSharingReportSurface exercises the re-exported report types.
func TestSharingReportSurface(t *testing.T) {
	res, err := dsmsim.StartApp(context.Background(),
		dsmsim.Config{Nodes: 8, BlockSize: 4096, Protocol: dsmsim.HLRC},
		"volrend-original", dsmsim.Small, dsmsim.WithShareProfile())
	if err != nil {
		t.Fatal(err)
	}
	var rep *dsmsim.SharingReport = res.Sharing
	var top []dsmsim.SharingRegion = rep.Top(3)
	if len(top) == 0 {
		t.Fatal("no regions in report")
	}
	var cls dsmsim.SharingClass = top[0].TopClass()
	if cls.String() == "unknown" {
		t.Fatalf("bad class %d", cls)
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sharing profile:", "false-sharing", "image", "taskqueues", "volume"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("report missing %q:\n%s", want, text.String())
		}
	}
}
