// Command a1bench regenerates the paper's evaluation tables and figures
// (§6) on the simulated cluster. Each experiment prints the same series the
// paper plots, plus notes comparing against the published numbers.
//
// Usage:
//
//	a1bench -experiment all                 # every experiment, test scale
//	a1bench -experiment fig10 -scale paper  # Figure 10 on 245 machines
//	a1bench -list                           # enumerate experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"a1/internal/bench"
)

type experiment struct {
	id   string
	desc string
	run  func(bench.Spec) ([]*bench.Report, error)
}

func single(fn func(bench.Spec) (*bench.Report, error)) func(bench.Spec) ([]*bench.Report, error) {
	return func(s bench.Spec) ([]*bench.Report, error) {
		r, err := fn(s)
		if err != nil {
			return nil, err
		}
		return []*bench.Report{r}, nil
	}
}

var experiments = []experiment{
	{"fig10", "Q1 (Spielberg collaborators) avg/P99 latency vs offered load", single(bench.Fig10)},
	{"fig11", "total RDMA read time vs number of reads per operator batch", single(bench.Fig11)},
	{"fig12", "Q2 (actors who played Batman) avg/P99 latency vs offered load", single(bench.Fig12)},
	{"fig13", "Q3 (star pattern) avg/P99 latency vs offered load", single(bench.Fig13)},
	{"fig14", "latency vs throughput for cluster sizes 10/15/35/55", single(bench.Fig14)},
	{"q4", "Q4 stress: vertices/query, latency, cluster read rate", single(bench.Q4Stress)},
	{"locality", "query shipping locality (95% local reads)", single(bench.Locality)},
	{"baseline", "A1 vs two-tier cache stack (the 3.6x claim)", single(bench.BaselineCompare)},
	{"restart", "fast restart vs disaster recovery downtime", single(bench.FastRestart)},
	{"ablations", "edge-spill / shipping / placement design ablations", bench.Ablations},
}

func main() {
	var (
		expFlag   = flag.String("experiment", "all", "experiment id or 'all'")
		scaleFlag = flag.String("scale", "test", "test | paper (245 machines, slower)")
		machines  = flag.Int("machines", 0, "override machine count")
		queries   = flag.Int("queries", 0, "override queries per load point")
		seed      = flag.Int64("seed", 1, "simulation seed")
		list      = flag.Bool("list", false, "list experiments and exit")
		quick     = flag.Bool("quick", false, "smoke mode: tiny cluster and query counts so every experiment runs in seconds (CI)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.id, e.desc)
		}
		return
	}

	scale := bench.ScaleTest
	if *scaleFlag == "paper" {
		scale = bench.ScalePaper
	}
	spec := bench.DefaultSpec(scale)
	spec.Seed = *seed
	if *quick {
		spec.Machines = 10
		spec.Racks = 3
		spec.Rates = []float64{400, 800}
		spec.QueriesPerPt = 25
	}
	if *machines > 0 {
		spec.Machines = *machines
	}
	if *queries > 0 {
		spec.QueriesPerPt = *queries
	}

	ran := 0
	for _, e := range experiments {
		if *expFlag != "all" && !strings.EqualFold(*expFlag, e.id) {
			continue
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running %s (%s scale, %d machines)...\n", e.id, *scaleFlag, spec.Machines)
		reports, err := e.run(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "a1bench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		for _, r := range reports {
			r.Format(os.Stdout)
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", e.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "a1bench: unknown experiment %q (use -list)\n", *expFlag)
		os.Exit(2)
	}
}
