package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for q, want := range map[float64]float64{50: 5, 95: 10, 90: 9, 10: 1, 100: 10, 1: 1} {
		if got := percentile(vals, q); got != want {
			t.Errorf("p%v = %v, want %v", q, got, want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// Python: statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) ==
// [3.5, 13.5, 31.0], median 13.5.
func TestQuartileSpreadMatchesPythonExclusive(t *testing.T) {
	vals := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	want := (31.0 - 3.5) / 13.5
	if got := quartileSpread(vals); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestRecorderClosesCycles(t *testing.T) {
	r := newRecorder(3, 16)
	for i := 0; i < 7; i++ {
		r.add(i%2, int64(i+1)*1e6, uint32(i))
	}
	// Two whole cycles (1+2+3 and 4+5+6 ms); the seventh op is in flight.
	if len(r.cycles) != 2 || r.cycles[0].ms != 6 || r.cycles[1].ms != 15 || r.cycles[1].endUS != 5 {
		t.Fatalf("cycles = %v, want 6 ms and 15 ms, the second closing at 5 µs", r.cycles)
	}
	if got := templateMS([]*recorder{r}, 1); len(got) != 3 || got[0] != 2 {
		t.Errorf("template 1 durations = %v, want 3 starting at 2", got)
	}
}

// A window of four seconds, one op per millisecond, except that the third
// second runs at half speed: the median over slices must not see it.
func TestSlicesLeaveOutADisturbedStretch(t *testing.T) {
	r := newRecorder(1, 4096)
	for us := uint32(0); us < 4_000_000; {
		step := uint32(1000)
		if us >= 2_000_000 && us < 3_000_000 {
			step = 2000
		}
		us += step
		r.add(0, int64(step)*1000, us)
	}
	slices := cutSlices([]*recorder{r}, 4_000_000)
	if len(slices) != 16 {
		t.Fatalf("%d slices, want 16", len(slices))
	}
	rate := overSlices(slices, func(s slice) float64 { return s.OpsPerS })
	p50 := overSlices(slices, func(s slice) float64 { return s.P50MS })
	if math.Abs(rate-1000) > 5 || p50 != 1 {
		t.Errorf("rate %v ops/s and p50 %v ms over the slices, want 1000 and 1", rate, p50)
	}
}

func TestInterleaveSpreadsTemplates(t *testing.T) {
	cycle := interleave(4, 16, 16, 1)
	counts := map[int]int{}
	for _, tm := range cycle {
		counts[tm]++
	}
	if len(cycle) != 37 || counts[0] != 4 || counts[1] != 16 || counts[2] != 16 || counts[3] != 1 {
		t.Fatalf("cycle %v has counts %v", cycle, counts)
	}
	// No burst: Q1's four runs are at least six ops apart.
	last := -100
	for pos, tm := range cycle {
		if tm == 0 {
			if pos-last < 6 {
				t.Errorf("template 0 at %d and %d: bunched", last, pos)
			}
			last = pos
		}
	}
}

// fakeOracle is enough of a dataset for the op generators: ids, category
// membership and a recursion root.
func fakeOracle(n int) *oracle {
	o := &oracle{vertices: n, byCat: make([][]int32, 50), recurseRoot: 7}
	for i := 0; i < n; i++ {
		o.ids = append(o.ids, zipfNames.VertexID(i))
		o.byCat[i%50] = append(o.byCat[i%50], int32(i))
	}
	return o
}

func TestOpStreamDeterminism(t *testing.T) {
	orc := fakeOracle(1000)
	for _, w := range workloads {
		a, b := opsDigest(w, orc, 42, 2000), opsDigest(w, orc, 42, 2000)
		if a != b {
			t.Errorf("%s: same seed gave digests %s and %s", w.name, a, b)
		}
		if w.name == "traverse" {
			continue // four fixed documents in a fixed order: no seed in it
		}
		if c := opsDigest(w, orc, 43, 2000); c == a {
			t.Errorf("%s: seeds 42 and 43 gave the same digest %s", w.name, a)
		}
	}
}

func TestWriteKeysNeverCollideInFlight(t *testing.T) {
	orc := fakeOracle(1000)
	w := workloadByName("readwrite")
	const clients = 2
	streams := []*stream{newStream(w, orc, 9, 0, clients), newStream(w, orc, 9, 1, clients)}
	// k-th write of each client: the keys must differ.
	writes := make([][]string, clients)
	for c, s := range streams {
		for len(writes[c]) < 200 {
			if o := s.next(); o.tmpl == rwWrite {
				writes[c] = append(writes[c], o.key)
			}
		}
	}
	seen := map[string]bool{}
	for k := 0; k < 200; k++ {
		for c := range writes {
			if seen[writes[c][k]] {
				t.Fatalf("key %s written twice within %d writes", writes[c][k], 2*k)
			}
			seen[writes[c][k]] = true
		}
	}
}

func specForTest() *benchmarkSpec {
	s := &benchmarkSpec{}
	s.Workloads = append(s.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "point"})
	s.EndToEnd = []specMetric{
		{Name: "wall_ops_per_s", Better: "higher", Bound: 0.05},
		{Name: "wall_p50_ms", Better: "lower", Bound: 0.05},
	}
	return s
}

func runsOf(metric string, vals ...float64) []*runResult {
	var runs []*runResult
	for _, v := range vals {
		runs = append(runs, &runResult{Workload: "point", Correct: true, Metrics: map[string]metricValue{metric: {Value: v}}})
	}
	return runs
}

func TestCompareVerdicts(t *testing.T) {
	spec := specForTest()
	cases := []struct {
		name     string
		metric   string
		old, new []float64
		want     string
	}{
		{"throughput within bound", "wall_ops_per_s", []float64{100}, []float64{96}, verdictOK},
		{"throughput dropped", "wall_ops_per_s", []float64{100}, []float64{90}, verdictRegressed},
		{"throughput rose", "wall_ops_per_s", []float64{100}, []float64{150}, verdictOK},
		{"latency rose", "wall_p50_ms", []float64{1}, []float64{1.2}, verdictRegressed},
		{"latency fell", "wall_p50_ms", []float64{1}, []float64{0.5}, verdictOK},
		{"spread wider than the bound", "wall_p50_ms", []float64{1, 1.3, 0.8, 1.4, 0.7}, []float64{2, 2, 2, 2, 2}, verdictUnresolved},
		{"tight repeats, real regression", "wall_p50_ms", []float64{1, 1.01, 0.99, 1, 1}, []float64{1.2, 1.21, 1.19, 1.2, 1.2}, verdictRegressed},
	}
	for _, tc := range cases {
		rows := compare(spec, runsOf(tc.metric, tc.old...), runsOf(tc.metric, tc.new...))
		if len(rows) != 1 || rows[0].Verdict != tc.want {
			t.Errorf("%s: got %+v, want verdict %s", tc.name, rows, tc.want)
		}
	}
	// Traced runs carry no end-to-end metrics and are left out.
	traced := runsOf("wall_p50_ms", 9)
	traced[0].Trace = 1
	if rows := compare(spec, traced, traced); len(rows) != 0 {
		t.Errorf("traced runs compared: %+v", rows)
	}
}

// TestSmokeEveryWorkload runs the whole program at toy scale — every
// workload, both modes — and holds the emitted names against
// BENCHMARK.json in both directions, so the file and the program cannot
// drift apart.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if fmt.Sprint(declared) != fmt.Sprint(have) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", declared, have)
	}
	outDir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 5, seconds: 0.2, trace: trace, outDir: outDir}
			res, err := runWorkload(cfg, toyScale(), t.Logf)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, trace, res.Failed, res.Attempted, res.Errors)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if diff := nameDiff(want, res.Metrics); diff != "" {
				t.Errorf("%s trace=%v: %s", w.name, trace, diff)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(outDir, w.name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
				continue
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, m.Value)
				}
			}
		}
	}
}

// nameDiff reports names and units present on one side only.
func nameDiff(declared []specMetric, emitted map[string]metricValue) string {
	want := map[string]string{}
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	var problems []string
	for name, unit := range want {
		if got, ok := emitted[name]; !ok {
			problems = append(problems, "declared but not emitted: "+name)
		} else if got.Unit != unit {
			problems = append(problems, fmt.Sprintf("%s: declared unit %q, emitted %q", name, unit, got.Unit))
		}
	}
	for name := range emitted {
		if _, ok := want[name]; !ok {
			problems = append(problems, "emitted but not declared: "+name)
		}
	}
	sort.Strings(problems)
	return fmt.Sprint(problems)[1 : len(fmt.Sprint(problems))-1]
}
