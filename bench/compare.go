package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Verdicts of one compared metric.
const (
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictWorse      = "worse"
	verdictBetter     = "better"
)

// comparison is one end-to-end metric of one workload in two result files.
type comparison struct {
	Workload string
	Def      metricDef
	A, B     value
	// Change is the relative change from A to B counted in the metric's
	// worse direction (positive is worse), Spread the larger of the two
	// sides' interquartile range as a share of its median.
	Change, Spread float64
	Verdict        string
}

// judge compares two readings of one metric. A change beyond the bound
// in either direction is a difference; within the bound, readings whose
// own spread exceeds the bound cannot show "no change" and are
// unresolved.
func judge(def metricDef, a, b value) (change, spread float64, verdict string) {
	if a.Value != 0 {
		change = (b.Value - a.Value) / a.Value
	}
	if def.Better == "higher" {
		change = -change
	}
	spread = max(relSpread(a), relSpread(b))
	switch {
	case change > def.Bound:
		verdict = verdictWorse
	case change < -def.Bound:
		verdict = verdictBetter
	case spread > def.Bound:
		verdict = verdictUnresolved
	default:
		verdict = verdictUnchanged
	}
	return change, spread, verdict
}

// relSpread is the distance between a reading's quartiles as a share of
// its median; 0 when it carries no samples.
func relSpread(v value) float64 {
	if len(v.Samples) < 2 || v.Value == 0 {
		return 0
	}
	return (quantile(v.Samples, 0.75) - quantile(v.Samples, 0.25)) / v.Value
}

// compareReports judges every end-to-end metric of every workload the two
// reports share, one row each.
func compareReports(a, b *report) []comparison {
	var rows []comparison
	for _, pair := range sharedWorkloads(a, b) {
		for _, def := range endToEnd {
			va, oka := pair[0].EndToEnd[def.Name]
			vb, okb := pair[1].EndToEnd[def.Name]
			if !oka || !okb {
				continue
			}
			c := comparison{Workload: pair[0].Name, Def: def, A: va, B: vb}
			c.Change, c.Spread, c.Verdict = judge(def, va, vb)
			rows = append(rows, c)
		}
	}
	return rows
}

// sharedWorkloads pairs the workloads both reports ran, in a's order.
func sharedWorkloads(a, b *report) [][2]workloadReport {
	var pairs [][2]workloadReport
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name == wb.Name {
				pairs = append(pairs, [2]workloadReport{wa, wb})
			}
		}
	}
	return pairs
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints the comparison of two result files and reports
// whether any metric differs by more than its bound.
func compareFiles(w io.Writer, pathA, pathB string) (differs bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	rows := compareReports(a, b)
	if len(rows) == 0 {
		return false, fmt.Errorf("%s and %s share no workload with end-to-end metrics", pathA, pathB)
	}
	fmt.Fprintf(w, "A = %s (%s)\nB = %s (%s)\nratio is B/A, its base A; quartiles are over each file's iterations\n\n",
		pathA, a.Env.Commit, pathB, b.Env.Commit)
	fmt.Fprintf(w, "%-10s %-18s %14s %29s %14s %29s %7s %7s  %s\n",
		"workload", "metric", "A", "A q1..q3", "B", "B q1..q3", "B/A", "bound", "verdict")
	for _, c := range rows {
		ratio := 0.0
		if c.A.Value != 0 {
			ratio = c.B.Value / c.A.Value
		}
		fmt.Fprintf(w, "%-10s %-18s %14.6g %29s %14.6g %29s %7.3f %6.0f%%  %s\n",
			c.Workload, c.Def.Name, c.A.Value, quartiles(c.A), c.B.Value, quartiles(c.B),
			ratio, 100*c.Def.Bound, c.Verdict)
		if c.Verdict == verdictWorse || c.Verdict == verdictBetter {
			differs = true
		}
	}
	// Model counts repeat exactly, so any difference in them is a change
	// of the model, not noise.
	for _, d := range modelDiffs(a, b) {
		fmt.Fprintln(w, d)
		differs = true
	}
	return differs, nil
}

func quartiles(v value) string {
	if len(v.Samples) < 2 {
		return "-"
	}
	return fmt.Sprintf("%.6g..%.6g", quantile(v.Samples, 0.25), quantile(v.Samples, 0.75))
}

// modelDiffs lists every model count that is not identical to the digit
// in the two reports.
func modelDiffs(a, b *report) []string {
	var out []string
	if a.Seed != b.Seed {
		return nil // seed-dependent workloads simulate different faults
	}
	for _, pair := range sharedWorkloads(a, b) {
		for _, def := range fixedLayerDefs {
			va, oka := pair[0].PerLayer[def.Name]
			vb, okb := pair[1].PerLayer[def.Name]
			if strings.HasPrefix(def.Name, "model.") && oka && okb && va.Value != vb.Value {
				out = append(out, fmt.Sprintf("%-10s %-18s %v != %v: the model changed", pair[0].Name, def.Name, va.Value, vb.Value))
			}
		}
	}
	return out
}
