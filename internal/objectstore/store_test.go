package objectstore

import (
	"errors"
	"fmt"
	"testing"
)

// newest is the version of key best-effort recovery reads.
func newest(t *testing.T, tb *Table, key string) (Row, bool) {
	t.Helper()
	vs := tb.Versions([]byte(key))
	if len(vs) == 0 {
		return Row{}, false
	}
	return vs[len(vs)-1], true
}

// atOrBelowKey is the version of key a consistent recovery at ts reads.
func atOrBelowKey(t *testing.T, tb *Table, key string, ts uint64) (Row, bool) {
	t.Helper()
	var got Row
	var ok bool
	if err := tb.ScanAtOrBelow(ts, func(r Row) bool {
		if string(r.Key) == key {
			got, ok = r, true
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got, ok
}

func TestUpsertIfNewerOrdering(t *testing.T) {
	s := New()
	tb := s.CreateTable("v")
	// Newer wins regardless of arrival order.
	if err := tb.UpsertIfNewer([]byte("k"), []byte("v2"), 20); err != nil {
		t.Fatal(err)
	}
	if err := tb.UpsertIfNewer([]byte("k"), []byte("v1"), 10); err != nil {
		t.Fatal(err)
	}
	r, ok := newest(t, tb, "k")
	if !ok || string(r.Value) != "v2" || r.Ts != 20 {
		t.Errorf("row = %q@%d, want v2@20 (a late older update must not win)", r.Value, r.Ts)
	}
	// Once tR covers v2, a write to the key keeps only v2: v1 and the
	// stale v0 are below what either recovery reads.
	s.PutWatermark(25)
	tb.UpsertIfNewer([]byte("k"), []byte("v0"), 5)
	if vs := tb.Versions([]byte("k")); len(vs) != 1 || vs[0].Ts != 20 {
		t.Errorf("versions = %+v, want v2@20 alone", vs)
	}
}

func TestUpsertIdempotent(t *testing.T) {
	s := New()
	tb := s.CreateTable("v")
	for i := 0; i < 3; i++ { // replication log may flush an entry many times
		tb.UpsertIfNewer([]byte("k"), []byte("v"), 5)
	}
	if vs := tb.Versions([]byte("k")); len(vs) != 1 || string(vs[0].Value) != "v" || vs[0].Ts != 5 {
		t.Errorf("versions = %+v, want one v@5", vs)
	}
}

func TestDeleteTombstoneAndGC(t *testing.T) {
	s := New()
	tb := s.CreateTable("v")
	tb.UpsertIfNewer([]byte("k"), []byte("v"), 5)
	tb.DeleteIfNewer([]byte("k"), 8)
	r, ok := newest(t, tb, "k")
	if !ok || !r.Tombstone {
		t.Fatalf("expected tombstone, got %+v ok=%v", r, ok)
	}
	// A stale recreate below the tombstone ts does not win.
	tb.UpsertIfNewer([]byte("k"), []byte("old"), 7)
	if r, _ = newest(t, tb, "k"); !r.Tombstone {
		t.Error("stale recreate overwrote tombstone")
	}
	// A newer recreate replaces the tombstone.
	tb.UpsertIfNewer([]byte("k"), []byte("new"), 9)
	if r, _ = newest(t, tb, "k"); r.Tombstone || string(r.Value) != "new" {
		t.Errorf("recreate failed: %+v", r)
	}
	tb.DeleteIfNewer([]byte("k"), 12)
	if n := tb.GCTombstones(13); n != 0 {
		t.Errorf("GC removed a tombstone above tR: %d", n)
	}
	s.PutWatermark(12)
	if n := tb.GCTombstones(12); n != 0 {
		t.Errorf("GC removed tombstone at the boundary: %d", n)
	}
	if n := tb.GCTombstones(13); n != 1 {
		t.Errorf("GC removed %d tombstones, want 1", n)
	}
	if _, ok := newest(t, tb, "k"); ok {
		t.Error("tombstone still present after GC")
	}
}

func TestScanAtOrBelowPicksNewestVersion(t *testing.T) {
	s := New()
	tb := s.CreateTable("v")
	tb.UpsertIfNewer([]byte("k"), []byte("v1"), 10)
	tb.UpsertIfNewer([]byte("k"), []byte("v3"), 30)
	tb.UpsertIfNewer([]byte("k"), []byte("v2"), 20) // out of order arrival
	cases := []struct {
		ts   uint64
		want string
		ok   bool
	}{
		{5, "", false},
		{10, "v1", true},
		{15, "v1", true},
		{20, "v2", true},
		{29, "v2", true},
		{30, "v3", true},
		{99, "v3", true},
	}
	for _, c := range cases {
		r, ok := atOrBelowKey(t, tb, "k", c.ts)
		if ok != c.ok || (ok && string(r.Value) != c.want) {
			t.Errorf("ScanAtOrBelow(%d) = %q,%v; want %q,%v", c.ts, r.Value, ok, c.want, c.ok)
		}
	}
}

func TestVersionedTombstoneVisibility(t *testing.T) {
	s := New()
	tb := s.CreateTable("v")
	tb.UpsertIfNewer([]byte("k"), []byte("v1"), 10)
	tb.DeleteIfNewer([]byte("k"), 20)
	if r, ok := atOrBelowKey(t, tb, "k", 15); !ok || r.Tombstone {
		t.Error("pre-delete snapshot should see the value")
	}
	if r, ok := atOrBelowKey(t, tb, "k", 25); !ok || !r.Tombstone {
		t.Error("post-delete snapshot should see the tombstone")
	}
}

// TestInsertTrimsUnreadableVersions pins the trim rule: an insert keeps the
// newest version at or below tR and every version above it.
func TestInsertTrimsUnreadableVersions(t *testing.T) {
	s := New()
	tb := s.CreateTable("v")
	ts := func() []uint64 {
		var out []uint64
		for _, r := range tb.Versions([]byte("k")) {
			out = append(out, r.Ts)
		}
		return out
	}
	steps := []struct {
		tR, put uint64
		want    string
	}{
		{0, 10, "[10]"},
		{0, 20, "[10 20]"},          // tR below both: consistent recovery reads neither yet
		{0, 30, "[10 20 30]"},       // writes ahead of tR pile up
		{25, 40, "[20 30 40]"},      // 20 is the newest at or below 25; 10 goes
		{25, 35, "[20 30 35 40]"},   // a late write above tR is kept
		{100, 50, "[50]"},           // tR passed every write
		{100, 45, "[50]"},           // older than what every recovery reads
		{100, 50, "[50]"},           // replay
		{200, 60, "[60]"},           // a hot key behind a moving tR holds one version
		{200, 300, "[60 300]"},      // …and one more per write tR has not reached
		{250, 300, "[60 300]"},      // a replay trims nothing it did not before
		{250, 310, "[60 300 310]"},  // 60 is still what tR=250 reads
		{305, 320, "[300 310 320]"}, // now 300 is
		{^uint64(0), 330, "[330]"},  // tR past everything
		{^uint64(0), 1, "[330]"},    // stale
		{^uint64(0), 340, "[340]"},  // steady state: one version
	}
	for i, st := range steps {
		s.PutWatermark(st.tR)
		if err := tb.UpsertIfNewer([]byte("k"), []byte("v"), st.put); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(ts()); got != st.want {
			t.Fatalf("step %d (tR %d, put %d): versions %s, want %s", i, st.tR, st.put, got, st.want)
		}
	}
}

func TestScanSortedAndSnapshotScan(t *testing.T) {
	s := New()
	tb := s.CreateTable("v")
	for i := 0; i < 10; i++ {
		tb.UpsertIfNewer([]byte(fmt.Sprintf("k%02d", 9-i)), []byte("a"), 10)
	}
	tb.UpsertIfNewer([]byte("k05"), []byte("b"), 50)
	var keys []string
	tb.Scan(func(r Row) bool {
		keys = append(keys, string(r.Key))
		return true
	})
	if len(keys) != 10 || keys[0] != "k00" || keys[9] != "k09" {
		t.Errorf("scan keys = %v", keys)
	}
	// Snapshot at ts 10 sees the old value of k05.
	if r, _ := atOrBelowKey(t, tb, "k05", 10); string(r.Value) != "a" {
		t.Errorf("snapshot scan value = %q, want a", r.Value)
	}
}

func TestWatermark(t *testing.T) {
	s := New()
	if ts := s.Watermark(); ts != 0 {
		t.Errorf("watermark before the first put = %d, want 0", ts)
	}
	s.PutWatermark(100)
	s.PutWatermark(50) // the watermark only advances
	if ts := s.Watermark(); ts != 100 {
		t.Errorf("watermark = %d, want 100", ts)
	}
	s.SetUnavailable(true)
	if err := s.PutWatermark(200); !errors.Is(err, ErrUnavailable) {
		t.Errorf("put during outage: err = %v, want ErrUnavailable", err)
	}
	s.SetUnavailable(false)
	if ts := s.Watermark(); ts != 100 {
		t.Errorf("watermark after a failed put = %d, want 100", ts)
	}
}

func TestUnavailableInjection(t *testing.T) {
	s := New()
	tb := s.CreateTable("v")
	s.SetUnavailable(true)
	if err := tb.UpsertIfNewer([]byte("k"), []byte("v"), 1); !errors.Is(err, ErrUnavailable) {
		t.Errorf("err = %v, want ErrUnavailable", err)
	}
	if err := tb.Scan(func(Row) bool { return true }); !errors.Is(err, ErrUnavailable) {
		t.Errorf("scan err = %v, want ErrUnavailable", err)
	}
	s.SetUnavailable(false)
	if err := tb.UpsertIfNewer([]byte("k"), []byte("v"), 1); err != nil {
		t.Errorf("err after recovery = %v", err)
	}
}

func TestTableLifecycle(t *testing.T) {
	s := New()
	a := s.CreateTable("a")
	if s.CreateTable("a") != a {
		t.Error("CreateTable of an existing name made a second table")
	}
	if got, err := s.Table("a"); err != nil || got != a {
		t.Errorf("Table(a) = %p, %v; want %p", got, err, a)
	}
	if _, err := s.Table("missing"); !errors.Is(err, ErrNoTable) {
		t.Errorf("err = %v, want ErrNoTable", err)
	}
}
