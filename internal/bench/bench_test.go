package bench

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"a1"
)

// Harness self-tests at ScaleTest sizing: each figure must produce sane
// rows whose shape matches the paper's qualitative claims.

func testSpec() Spec {
	s := DefaultSpec(ScaleTest)
	s.Machines = 16
	s.Racks = 4
	s.Rates = []float64{500, 2000}
	s.QueriesPerPt = 80
	return s
}

func TestFig10Shape(t *testing.T) {
	r, err := Fig10(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		avg, p99, errs := row[1], row[3], row[5]
		if avg <= 0 || avg > 1000 {
			t.Errorf("avg = %vms out of range", avg)
		}
		if p99 < avg {
			t.Errorf("p99 %v < avg %v", p99, avg)
		}
		if errs != 0 {
			t.Errorf("errors = %v", errs)
		}
	}
	var buf bytes.Buffer
	r.Format(&buf)
	if buf.Len() == 0 {
		t.Error("empty report")
	}
}

func TestFig11Linearity(t *testing.T) {
	s := testSpec()
	s.Rates = []float64{500}
	s.QueriesPerPt = 60
	r, err := Fig11(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 3 {
		t.Fatalf("too few read-count buckets: %d", len(r.Rows))
	}
	// Total time should grow with read count; per-read time should stay
	// within the RDMA envelope (roughly 3..60us with queueing).
	prev := 0.0
	for _, row := range r.Rows {
		n, total, per := row[0], row[1], row[2]
		if total < prev*0.5 {
			t.Errorf("total time collapsed at %v reads: %v after %v", n, total, prev)
		}
		prev = total
		if per < 2 || per > 100 {
			t.Errorf("us/read = %v out of RDMA envelope", per)
		}
	}
}

func TestFig12AndFig13(t *testing.T) {
	s := testSpec()
	s.Rates = []float64{500}
	s.QueriesPerPt = 60
	if r, err := Fig12(s); err != nil || len(r.Rows) == 0 {
		t.Fatalf("fig12: %v", err)
	}
	if r, err := Fig13(s); err != nil || len(r.Rows) == 0 {
		t.Fatalf("fig13: %v", err)
	}
}

func TestFig14ScalesWithClusterSize(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster sweep")
	}
	s := testSpec()
	s.QueriesPerPt = 60
	r, err := Fig14(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	// At the highest measured common rate, bigger clusters must not be
	// slower (saturation order follows capacity).
	low := r.Rows[0]
	for i := 2; i < len(low); i++ {
		if low[i] < 0 {
			t.Errorf("smallest rate already saturated for size column %d", i)
		}
	}
}

func TestLocalityShape(t *testing.T) {
	s := testSpec()
	r, err := Locality(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatal("want shipping + no-shipping rows")
	}
	shipLocal, noShipLocal := r.Rows[0][3], r.Rows[1][3]
	if shipLocal < 60 {
		t.Errorf("shipped local%% = %v, want high (paper: 95%%)", shipLocal)
	}
	if noShipLocal >= shipLocal {
		t.Errorf("no-shipping local%% (%v) >= shipping (%v)", noShipLocal, shipLocal)
	}
}

func TestBaselineSpeedup(t *testing.T) {
	s := testSpec()
	r, err := BaselineCompare(s)
	if err != nil {
		t.Fatal(err)
	}
	a1Avg, ttAvg := r.Rows[0][1], r.Rows[1][1]
	if ttAvg <= a1Avg {
		t.Errorf("two-tier (%vms) not slower than A1 (%vms)", ttAvg, a1Avg)
	}
	speedup := ttAvg / a1Avg
	if speedup < 1.5 {
		t.Errorf("speedup %.1fx too small (paper: 3.6x)", speedup)
	}
	t.Logf("A1 %.3fms vs two-tier %.3fms: %.1fx", a1Avg, ttAvg, speedup)
}

func TestFastRestartOrderOfMagnitude(t *testing.T) {
	s := testSpec()
	r, err := FastRestart(s)
	if err != nil {
		t.Fatal(err)
	}
	fast, dr := r.Rows[0][1], r.Rows[1][1]
	if fast <= 0 || dr <= 0 {
		t.Fatalf("downtimes: fast=%v dr=%v", fast, dr)
	}
	if dr < fast {
		t.Errorf("DR reload (%vms) faster than fast restart (%vms)", dr, fast)
	}
	t.Logf("fast restart %.0fms vs DR %.0fms", fast, dr)
}

func TestQ4StressNumbers(t *testing.T) {
	s := testSpec()
	s.QueriesPerPt = 60
	r, err := Q4Stress(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row[3] <= 0 { // vertices per query
			t.Errorf("vertices/query = %v", row[3])
		}
		if row[4] <= 0 { // Mreads/s
			t.Errorf("read rate = %v", row[4])
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster ablations")
	}
	s := testSpec()
	s.Rates = []float64{500, 1000}
	s.QueriesPerPt = 40
	reports, err := Ablations(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("ablations = %d, want 3", len(reports))
	}
	// Spill ablation: the spilled (threshold=8) variant reads more objects
	// than the inline variant for the same 500-edge enumeration.
	spill := reports[0]
	if len(spill.Rows) == 2 && spill.Rows[0][1] <= spill.Rows[1][1] {
		t.Errorf("spilled enumeration (%v objects) not costlier than inline (%v)",
			spill.Rows[0][1], spill.Rows[1][1])
	}
}

// TestExampleQueries runs the result-shaping example documents that
// a1shell's :examples prints end-to-end on the test knowledge graph.
func TestExampleQueries(t *testing.T) {
	k, err := NewKGCluster(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer k.DB.Close()
	var qerr error
	k.DB.Run(func(c *a1.Ctx) {
		top, err := k.DB.Query(c, k.G, QTopFilms)
		if err != nil {
			qerr = err
			return
		}
		if len(top.Rows) != 5 {
			qerr = fmt.Errorf("QTopFilms rows = %d, want 5", len(top.Rows))
			return
		}
		stats, err := k.DB.Query(c, k.G, QFilmStats)
		if err != nil {
			qerr = err
			return
		}
		if !stats.HasCount || stats.Count == 0 || len(stats.Aggregates) != 4 {
			qerr = fmt.Errorf("QFilmStats count=%d aggs=%d", stats.Count, len(stats.Aggregates))
		}
	})
	if qerr != nil {
		t.Fatal(qerr)
	}
}

func TestMeasureRateAccounting(t *testing.T) {
	s := testSpec()
	k, err := NewKGCluster(s)
	if err != nil {
		t.Fatal(err)
	}
	defer k.DB.Close()
	m := MeasureRate(k.DB, k.G, Q1, nil, 1000, 50)
	if m.Errors != 0 {
		t.Errorf("errors = %d", m.Errors)
	}
	if m.Avg <= 0 || m.P99 < m.Avg || m.Max < m.P99 {
		t.Errorf("ordering violated: avg=%v p99=%v max=%v", m.Avg, m.P99, m.Max)
	}
	if m.Duration < 25*time.Millisecond {
		t.Errorf("virtual span %v too short for 50 queries at 1000qps", m.Duration)
	}
	if m.VerticesRead == 0 {
		t.Error("no vertex reads accounted")
	}
}
