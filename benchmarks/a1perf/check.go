package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

type comparison struct {
	Workload string
	Metric   string
	Old, New float64 // medians over each side's runs
	Worse    float64 // share of Old by which New is worse (negative: better)
	Spread   float64 // the wider side's quartile spread, as a share of its median
	Bound    float64
	Verdict  string
}

// compare applies each end-to-end metric's direction and bound to the two
// sides' medians, one row per workload × metric. A side's runs of the same
// workload are its repeats: when either side's spread between quartiles is
// wider than the bound the row is unresolved, not ok and not regressed.
func compare(spec *benchmarkSpec, old, new []*runResult) []comparison {
	var rows []comparison
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := valuesOf(old, w.Name, m.Name), valuesOf(new, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			c := comparison{Workload: w.Name, Metric: m.Name, Bound: m.Bound}
			c.Old, c.New = median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
			if c.Old != 0 {
				c.Worse = (c.New - c.Old) / c.Old
				if m.Better == "higher" {
					c.Worse = -c.Worse
				}
			}
			c.Spread = max(quartileSpread(a), quartileSpread(b))
			switch {
			case c.Spread > m.Bound:
				c.Verdict = verdictUnresolved
			case c.Worse > m.Bound:
				c.Verdict = verdictRegressed
			default:
				c.Verdict = verdictOK
			}
			rows = append(rows, c)
		}
	}
	return rows
}

func valuesOf(runs []*runResult, workload, metric string) []float64 {
	var vals []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// checkFiles is `a1perf -check old.json new.json`. It reports whether any
// row regressed or any run on the new side failed its own checks.
func checkFiles(specPath, oldPath, newPath string, out io.Writer) (regressed bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	read := func(path string) ([]*runResult, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return f.Runs, nil
	}
	old, err := read(oldPath)
	if err != nil {
		return false, err
	}
	new, err := read(newPath)
	if err != nil {
		return false, err
	}
	rows := compare(spec, old, new)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
	fmt.Fprintf(out, "%-10s %-26s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old", "new", "worse", "spread", "bound", "verdict")
	for _, c := range rows {
		fmt.Fprintf(out, "%-10s %-26s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s\n",
			c.Workload, c.Metric, c.Old, c.New, c.Worse*100, c.Spread*100, c.Bound*100, c.Verdict)
		regressed = regressed || c.Verdict == verdictRegressed
	}
	for _, r := range new {
		if !r.Correct {
			fmt.Fprintf(out, "%-10s seed %d trace %d: %d of %d ops failed\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
			regressed = true
		}
	}
	return regressed, nil
}
