package lint_test

import (
	"os/exec"
	"testing"

	"a1/internal/lint"
	"a1/internal/lint/analysistest"
)

// The fixtures type-check against real standard-library export data via
// `go list`, so they need the go tool on PATH (always true in CI and on
// dev machines; guarded for exotic environments).
func needGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH; fixtures need stdlib export data")
	}
}

func TestMapOrder(t *testing.T) {
	needGo(t)
	analysistest.Run(t, "testdata/maporder", lint.MapOrder,
		"a1/internal/query", "a1/internal/other")
}

// TestLockFabric covers a1/locks' remote-call rule (and its interplay
// with ordering inside function literals).
func TestLockFabric(t *testing.T) {
	needGo(t)
	analysistest.Run(t, "testdata/locks", lint.Locks,
		"a1/internal/router", "a1/internal/sim", "a1/internal/core")
}

func TestBatchReads(t *testing.T) {
	needGo(t)
	analysistest.Run(t, "testdata/batchreads", lint.BatchReads,
		"a1/internal/exec", "a1/internal/hydra")
}

func TestMarshalSize(t *testing.T) {
	needGo(t)
	analysistest.Run(t, "testdata/marshalsize", lint.MarshalSize,
		"a1/internal/query", "a1/internal/codec")
}

// TestLockOrder covers a1/locks' lock-order rule.
func TestLockOrder(t *testing.T) {
	needGo(t)
	analysistest.Run(t, "testdata/locks", lint.Locks,
		"a1/internal/alpha", "a1/internal/beta")
}

func TestByName(t *testing.T) {
	for _, name := range []string{"a1/maporder", "maporder"} {
		as, ok := lint.ByName([]string{name})
		if !ok || len(as) != 1 || as[0] != lint.MapOrder {
			t.Fatalf("ByName(%q) = %v, %v", name, as, ok)
		}
	}
	if _, ok := lint.ByName([]string{"nonsense"}); ok {
		t.Fatal("ByName accepted an unknown analyzer name")
	}
}
