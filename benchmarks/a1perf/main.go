// Command a1perf is this repository's benchmark: it loads a seeded
// dataset, drives one of four workloads through the public facade (a1.DB)
// on two clocks — the Direct wall clock and the Sim virtual clock — checks
// every answer against a brute-force walk, and prints each metric by name
// with its unit. benchmarks/README.md holds the methodology.
//
//	go run ./benchmarks/a1perf -workload point -seed 1            end-to-end metrics
//	go run ./benchmarks/a1perf -workload point -seed 1 -trace 1   per-layer metrics and the ladder trace
//	go run ./benchmarks/a1perf -all -out new.json                 every workload, both modes, one file
//	go run ./benchmarks/a1perf -check old.json new.json           compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// resultFile is what -out writes: the host the numbers were taken on, every
// run, and the claim the runs support. This benchmark's own change claims
// none.
type resultFile struct {
	Host  hostInfo     `json:"host"`
	Runs  []*runResult `json:"runs"`
	Claim *string      `json:"claim"`
}

// hostInfo is the baseline block every result file carries.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	OS         string `json:"os"`
}

func host() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if h.GOGC == "" {
		h.GOGC = "100 (default)"
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// The program runs from the repository root: its directory holds
// expected.json and receives out/, and BENCHMARK.json gives -check its
// bounds and directions.
const (
	benchDir = "benchmarks"
	specPath = "BENCHMARK.json"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: point, traverse, shape or readwrite")
		seed     = flag.Int64("seed", 1, "seed of the dataset and the op streams")
		seconds  = flag.Float64("seconds", 6, "length of the timed closed-loop window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the ladder trace")
		all      = flag.Bool("all", false, "run every workload in both modes, in sequence")
		repeat   = flag.Int("repeat", 1, "with -all: how many times to run the whole set")
		out      = flag.String("out", "", "result file (default benchmarks/out/<workload|all>.json)")
		check    = flag.Bool("check", false, "compare two result files: a1perf -check old.json new.json")
	)
	flag.Parse()
	started := time.Now()
	logf := func(format string, args ...any) {
		fmt.Printf("[%6.1fs] "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
	}

	if *check {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: a1perf -check old.json new.json")
			return 2
		}
		regressed, err := checkFiles(specPath, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "a1perf:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	if *out == "" {
		name := *workload
		if *all {
			name = "all"
		}
		*out = filepath.Join(benchDir, "out", name+".json")
	}
	if *all {
		return runAll(*repeat, *seed, *seconds, *out)
	}
	if workloadByName(*workload) == nil {
		fmt.Fprintf(os.Stderr, "a1perf: -workload must be one of point, traverse, shape, readwrite (got %q)\n", *workload)
		return 2
	}

	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		outDir: filepath.Join(benchDir, "out"), expected: filepath.Join(benchDir, "expected.json"),
	}
	logf("== %s seed=%d seconds=%g trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	res, err := runWorkload(cfg, fullScale(), logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "a1perf:", err)
		return 1
	}
	printMetrics(res)
	if err := writeJSON(*out, resultFile{Host: host(), Runs: []*runResult{res}}); err != nil {
		fmt.Fprintln(os.Stderr, "a1perf:", err)
		return 1
	}
	logf("result file: %s", *out)

	// The last line of standard output is the run's result object.
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll is -all: every workload in both modes, repeat times over, each run
// in a process of its own — as the acceptance driver runs them — so that no
// run inherits the Go heap an earlier one grew. The runs are merged into
// one result file.
func runAll(repeat int, seed int64, seconds float64, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "a1perf:", err)
		return 1
	}
	file := resultFile{Host: host()}
	part := out + ".part"
	defer os.Remove(part)
	status := 0
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(self, "-workload", w.name, "-trace", fmt.Sprint(trace), "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(seconds), "-out", part)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				runErr := cmd.Run()
				var one resultFile
				raw, err := os.ReadFile(part)
				if err == nil {
					err = json.Unmarshal(raw, &one)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "a1perf: %s trace=%d: %v (%v)\n", w.name, trace, runErr, err)
					return 1
				}
				os.Remove(part)
				file.Runs = append(file.Runs, one.Runs...)
				if runErr != nil {
					status = 1
				}
			}
		}
	}
	if err := writeJSON(out, file); err != nil {
		fmt.Fprintln(os.Stderr, "a1perf:", err)
		return 1
	}
	fmt.Printf("result file: %s (%d runs)\n", out, len(file.Runs))
	return status
}

func printMetrics(res *runResult) {
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-38s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	for _, tm := range workloadByName(res.Workload).templates {
		fmt.Printf("%-38s %16.6g ms (median in the window)\n", "template "+tm.name, res.TemplateMS[tm.name])
	}
	fmt.Printf("%-38s %16d of %d attempted (%d re-sent)\n", "failed", res.Failed, res.Attempted, res.Retried)
	for _, e := range res.Errors {
		fmt.Println("  error:", e)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// expectedFile freezes the digest of each workload's loaded dataset and,
// for one seed, of its generated ops, so an edit to internal/workload or
// to the Table 2 documents cannot silently move the numbers.
type expectedFile struct {
	Seed      int64                  `json:"seed"`
	Workloads map[string]datasetInfo `json:"workloads"`
}

func checkExpected(path, workload string, seed int64, got datasetInfo) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("drift guard: %w", err)
	}
	var exp expectedFile
	if err := json.Unmarshal(raw, &exp); err != nil {
		return fmt.Errorf("drift guard: %s: %w", path, err)
	}
	want, ok := exp.Workloads[workload]
	if !ok {
		return nil
	}
	if seed != exp.Seed {
		got.OpsDigest = want.OpsDigest // frozen for one seed only
	}
	if got != want {
		return fmt.Errorf("drift guard: %s seed %d has %+v, %s froze %+v — the dataset or op generator changed; re-baseline deliberately",
			workload, seed, got, path, want)
	}
	return nil
}
