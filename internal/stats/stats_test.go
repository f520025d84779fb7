package stats

import (
	"fmt"
	"math"
	"testing"
	"time"

	"a1/internal/bond"
)

func TestVertexAndFieldCounts(t *testing.T) {
	tr := NewTracker(4, time.Second)
	for i := 0; i < 100; i++ {
		m := i % 4
		tr.Local(m).VertexAdded("t/g", "node")
		// 60 hot values, 40 spread over 40 distinct tail values.
		v := bond.String("hot")
		if i%5 != 0 && i%5 != 1 && i%5 != 2 {
			v = bond.String(fmt.Sprintf("tail%03d", i))
		}
		tr.Local(m).FieldValueAdded("t/g", "node", "category", v)
	}
	s := tr.Summary(0, 0, "t/g")
	if n, ok := s.TypeCount("node"); !ok || n != 100 {
		t.Fatalf("TypeCount = %d, %v; want 100", n, ok)
	}
	fs, ok := s.FieldStats("node", "category")
	if !ok {
		t.Fatal("no field stats for category")
	}
	if fs.Count != 100 {
		t.Fatalf("field count = %d, want 100", fs.Count)
	}
	if len(fs.TopK) == 0 || !fs.TopK[0].Value.Equal(bond.String("hot")) {
		t.Fatalf("top heavy hitter = %+v, want hot", fs.TopK)
	}
	hot := fs.EqEstimate(bond.String("hot"))
	if hot < 40 || hot > 80 {
		t.Fatalf("EqEstimate(hot) = %.1f, want ≈60", hot)
	}
	tail := fs.EqEstimate(bond.String("tail003"))
	if tail > 10 {
		t.Fatalf("EqEstimate(tail) = %.1f, want small", tail)
	}
	if fs.Distinct < 20 || fs.Distinct > 80 {
		t.Fatalf("Distinct = %d, want ≈41", fs.Distinct)
	}
}

// TestEqualValuesShareKey: the sketches key a value by its index encoding,
// so −0.0 and 0.0 count as one value, as every NaN does, and an equality
// estimate counts each one's whole class, as the index probe finds it.
func TestEqualValuesShareKey(t *testing.T) {
	tr := NewTracker(1, time.Second)
	for _, f := range []float64{math.Copysign(0, -1), 0, 0, math.NaN(), -math.NaN(), 1} {
		tr.Local(0).FieldValueAdded("t/g", "node", "d", bond.Double(f))
	}
	fs, _ := tr.Summary(0, 0, "t/g").FieldStats("node", "d")
	if fs.Distinct != 3 {
		t.Errorf("Distinct = %d, want 3", fs.Distinct)
	}
	for _, tc := range []struct {
		v    float64
		want float64
	}{{0, 3}, {math.Copysign(0, -1), 3}, {math.NaN(), 2}} {
		if got := fs.EqEstimate(bond.Double(tc.v)); got != tc.want {
			t.Errorf("EqEstimate(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestRemovalDecays(t *testing.T) {
	tr := NewTracker(1, time.Second)
	l := tr.Local(0)
	for i := 0; i < 50; i++ {
		l.VertexAdded("t/g", "node")
		l.FieldValueAdded("t/g", "node", "f", bond.Int64(int64(i%5)))
	}
	for i := 0; i < 20; i++ {
		l.VertexRemoved("t/g", "node")
		l.FieldValueRemoved("t/g", "node", "f", bond.Int64(int64(i%5)))
	}
	s := tr.Summary(0, 0, "t/g")
	if n, _ := s.TypeCount("node"); n != 30 {
		t.Fatalf("TypeCount = %d, want 30", n)
	}
	fs, _ := s.FieldStats("node", "f")
	if fs.Count != 30 {
		t.Fatalf("field count = %d, want 30", fs.Count)
	}
}

func TestEdgeDegree(t *testing.T) {
	tr := NewTracker(2, time.Second)
	// 10 sources, 4 edges each.
	for src := 0; src < 10; src++ {
		for e := 0; e < 4; e++ {
			tr.Local(src%2).EdgeAdded("t/g", "link", uint64(1000+src))
		}
	}
	s := tr.Summary(1, 0, "t/g")
	deg, ok := s.MeanOutDegree("link")
	if !ok {
		t.Fatal("no degree for link")
	}
	if deg < 3 || deg > 5 {
		t.Fatalf("MeanOutDegree = %.2f, want ≈4", deg)
	}
}

func TestEdgeDegreeAlignedAddresses(t *testing.T) {
	// Real vertex addresses are allocator-aligned (multiples of the slot
	// granularity). The sketch must hash them, or only a sliver of its
	// slots is reachable and distinct-source estimates saturate —
	// inflating mean out-degree by orders of magnitude.
	tr := NewTracker(1, time.Second)
	for src := 0; src < 2000; src++ {
		tr.Local(0).EdgeAdded("t/g", "link", uint64(64+32*src))
	}
	s := tr.Summary(0, 0, "t/g")
	deg, ok := s.MeanOutDegree("link")
	if !ok {
		t.Fatal("no degree for link")
	}
	if deg > 2 {
		t.Fatalf("MeanOutDegree = %.2f with 2000 aligned sources of degree 1, want ≈1", deg)
	}
}

func TestSummaryTTLAndInvalidate(t *testing.T) {
	tr := NewTracker(1, 10*time.Second)
	tr.Local(0).VertexAdded("t/g", "node")
	s1 := tr.Summary(0, 0, "t/g")
	tr.Local(0).VertexAdded("t/g", "node")
	// Within the TTL the stale cached view is served.
	s2 := tr.Summary(0, 5*time.Second, "t/g")
	if s1 != s2 {
		t.Fatal("expected cached summary within TTL")
	}
	// Past the TTL it refreshes.
	s3 := tr.Summary(0, 11*time.Second, "t/g")
	if n, _ := s3.TypeCount("node"); n != 2 {
		t.Fatalf("refreshed count = %d, want 2", n)
	}
	tr.Local(0).VertexAdded("t/g", "node")
	tr.Invalidate("t/g")
	s4 := tr.Summary(0, 12*time.Second, "t/g")
	if n, _ := s4.TypeCount("node"); n != 3 {
		t.Fatalf("invalidated count = %d, want 3", n)
	}
}

func TestResetGraph(t *testing.T) {
	tr := NewTracker(2, time.Second)
	tr.Local(0).VertexAdded("t/g", "node")
	tr.Local(1).VertexAdded("t/g", "node")
	tr.ResetGraph("t/g")
	s := tr.Summary(0, 0, "t/g")
	if n, ok := s.TypeCount("node"); ok && n != 0 {
		t.Fatalf("count after reset = %d, want 0", n)
	}
}
