package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"a1"
	"a1/internal/workload"
)

// captureStdout runs fn with os.Stdout sent to a file and returns what it
// printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRunQueryReleasesCappedResults stops printing rows and groups at the
// cap while pages remain, and requires that nothing stays parked on any
// machine: the cursor's deferred Close releases both streams.
func TestRunQueryReleasesCappedResults(t *testing.T) {
	for _, tc := range []struct{ name, doc, capped string }{
		{"rows", `{"_hints": {"page_size": 5}, "_type": "entity", "_select": ["id"]}`,
			"output capped at 20 rows"},
		{"groups", `{"_hints": {"page_size": 5}, "_type": "entity", "_groupby": "id", "_select": ["_count(*)"]}`,
			"group output capped at 20"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh, _, err := openShell(4, workload.TestParams())
			if err != nil {
				t.Fatal(err)
			}
			defer sh.db.Close()
			out := captureStdout(t, func() { sh.runQuery(tc.doc) })
			if !strings.Contains(out, tc.capped) {
				t.Fatalf("output was not capped:\n%s", out)
			}
			if n := sh.db.Farm().PinnedSnapshots(); n != 0 {
				t.Errorf("%d snapshot pins still held", n)
			}
			for m := range sh.db.Fabric().Machines() {
				id := a1.MachineID(m)
				if n := sh.db.Engine().PendingResults(id); n != 0 {
					t.Errorf("machine %d: %d continuation entries still cached", m, n)
				}
				if n := sh.db.Engine().PendingRuns(id); n != 0 {
					t.Errorf("machine %d: %d group runs still parked", m, n)
				}
			}
		})
	}
}
