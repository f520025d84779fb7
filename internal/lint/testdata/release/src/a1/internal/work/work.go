// Fixture for a1/release: acquired cursors and update transactions must
// reach their release on every control-flow path, or escape.
package work

import (
	"errors"

	"a1/internal/farm"
	"a1/internal/query"
)

var errEmpty = errors.New("empty")

// Bad: the validate error return leaks the open cursor (its err is a
// fresh variable, so no error-path pruning applies to it).
func LeakOnError(q string) error {
	rows, err := query.Open(q) // want `cursor "rows" acquired in LeakOnError does not reach Close on every path`
	if err != nil {
		return err
	}
	if err := validate(q); err != nil {
		return err
	}
	return rows.Close()
}

// Bad: no Close anywhere; the cursor leaks at function exit. Method
// calls on the cursor are neutral uses, not hand-offs.
func CountFirst(q string) bool {
	rows, err := query.Open(q) // want `cursor "rows" acquired in CountFirst does not reach Close on every path`
	if err != nil {
		return false
	}
	return rows.Next()
}

// Good: the deferred Close covers every path after the error check, and
// the error path itself is pruned (err != nil means rows is nil).
func DeferClose(q string) error {
	rows, err := query.Open(q)
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
	}
	return rows.Err()
}

// Good: explicit Close on both terminal paths.
func CloseBothPaths(q string) (int, error) {
	rows, err := query.Open(q)
	if err != nil {
		return 0, err
	}
	n := 0
	for rows.Next() {
		n++
	}
	if n == 0 {
		rows.Close()
		return 0, nil
	}
	rows.Close()
	return n, nil
}

// Good: returning the cursor hands the release obligation to the caller.
func OpenForCaller(q string) (*query.Rows, error) {
	rows, err := query.Open(q)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Good: passing the cursor to another function is a hand-off too.
func Handoff(q string, sink func(*query.Rows) error) error {
	rows, err := query.Open(q)
	if err != nil {
		return err
	}
	return sink(rows)
}

// Good: the nil guard prunes the branch where nothing was acquired.
func NilGuard(q string) {
	rows, _ := query.Open(q)
	if rows == nil {
		return
	}
	rows.Close()
}

// Good: panic paths are exempt — a deferred Close would still run, and
// a direct one never could.
func PanicPath(q string) error {
	rows, err := query.Open(q)
	if err != nil {
		panic("open failed")
	}
	return rows.Close()
}

// Bad: function literals are separate units; this closure leaks its own
// cursor on every call.
func InClosure(q string) func() bool {
	return func() bool {
		rows, err := query.Open(q) // want `cursor "rows" acquired in InClosure \(func literal\) does not reach Close on every path`
		if err != nil {
			return false
		}
		return rows.Next()
	}
}

// Suppressed: a sanctioned process-lifetime cursor, justified inline.
func Sanctioned(q string) {
	//lint:ignore a1/release fixture: process-lifetime cursor, closed by the runtime at shutdown
	rows, _ := query.Open(q)
	if rows != nil {
		rows.Next()
	}
}

// Bad: the empty-key return sits between CreateTransaction and Commit,
// leaking the transaction's slot reservations.
func UpdateLeaky(k string) error {
	tx, err := farm.CreateTransaction() // want `transaction "tx" acquired in UpdateLeaky does not reach Commit or Abort on every path`
	if err != nil {
		return err
	}
	if k == "" {
		return errEmpty
	}
	return tx.Commit()
}

// Good: deferred Abort backstops every path; Commit on success.
func UpdateSafe(k string) error {
	tx, err := farm.CreateTransaction()
	if err != nil {
		return err
	}
	defer tx.Abort()
	if k == "" {
		return errEmpty
	}
	return tx.Commit()
}

// Good: unpinned read transactions hold nothing and are not tracked, so
// dropping one without Commit is fine by design.
func ReadOnly(k string) ([]byte, error) {
	tx, err := farm.CreateReadTransaction()
	if err != nil {
		return nil, err
	}
	return tx.Get(k)
}

// Bad: the pinned snapshot is never released, so no version it can see is
// ever reclaimed.
func ReadPinnedLeaky(k string) ([]byte, error) {
	tx, err := farm.CreatePinnedReadTransaction() // want `read transaction "tx" acquired in ReadPinnedLeaky does not reach Commit or Abort on every path`
	if err != nil {
		return nil, err
	}
	return tx.Get(k)
}

// Good: a deferred Abort releases the pin on every path.
func ReadPinnedSafe(k string) ([]byte, error) {
	tx, err := farm.CreatePinnedReadTransaction()
	if err != nil {
		return nil, err
	}
	defer tx.Abort()
	return tx.Get(k)
}

// Good: the pin is released right after the read, before the early return.
func ReadPinnedThenCheck(k string) ([]byte, error) {
	tx, _ := farm.CreatePinnedReadTransaction()
	v, err := tx.Get(k)
	tx.Abort()
	if err != nil {
		return nil, err
	}
	return v, nil
}

func validate(q string) error {
	if q == "" {
		return errEmpty
	}
	return nil
}
