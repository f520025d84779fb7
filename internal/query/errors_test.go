package query

import (
	"errors"
	"fmt"
	"testing"

	"a1/internal/fabric"
	"a1/internal/farm"
)

// TestClassifyCodes: each sentinel an execution can surface maps to its
// code, through any wrapping; a snapshot whose versions were reclaimed is
// a retry on a fresh snapshot, not an internal failure.
func TestClassifyCodes(t *testing.T) {
	for _, c := range []struct {
		err  error
		want Code
	}{
		{ErrNoStart, CodeNoStart},
		{ErrBadToken, CodeBadToken},
		{ErrWorkingSet, CodeWorkingSet},
		{farm.ErrRegionLost, CodeUnavailable},
		{fabric.ErrUnreachable, CodeUnavailable},
		{farm.ErrTooOld, CodeUnavailable},
		{fmt.Errorf("%w: version chain broken", farm.ErrTooOld), CodeUnavailable},
		{errors.New("boom"), CodeInternal},
	} {
		var qe *Error
		if err := classify(c.err); !errors.As(err, &qe) || qe.Code != c.want || !errors.Is(err, c.err) {
			t.Errorf("classify(%v) = %v (%v), want code %v", c.err, err, qe, c.want)
		}
	}
}
