package query

import (
	"errors"
	"fmt"

	"a1/internal/fabric"
	"a1/internal/farm"
)

// Structured errors: every error the engine surfaces to a client carries a
// Code so transport layers (cmd/a1server) can map failure classes to
// protocol-level statuses (400/404/410/413/503) instead of blanket 500s. The
// sentinel errors (ErrNoStart, ErrBadToken, ...) stay `errors.Is`-able
// through the wrapping.

// Code classifies an engine error.
type Code int

const (
	// CodeInternal is an unclassified execution failure.
	CodeInternal Code = iota
	// CodeParse rejects a malformed A1QL document.
	CodeParse
	// CodeBadParam rejects a bad parameter binding (missing, unknown, or
	// ill-typed bind value).
	CodeBadParam
	// CodeNoStart means the root pattern matched no vertex.
	CodeNoStart
	// CodeBadToken rejects a malformed or expired continuation token.
	CodeBadToken
	// CodeWorkingSet fast-fails queries whose intermediate state outgrew
	// the coordinator's budget.
	CodeWorkingSet
	// CodeRecurse rejects `_recurse` misuse: `_min` > `_max`, a depth
	// bound past the traversal cap, or `_recurse` combined with clauses
	// that have no recursive semantics.
	CodeRecurse
	// CodeUnavailable means the query needed data it cannot reach: a
	// region lost with every replica, a machine the fabric cannot reach, or
	// a version its snapshot needs that reclamation has already freed
	// (farm.ErrTooOld). The last is retried on a fresh snapshot.
	CodeUnavailable
	// NumCodes counts the codes above. Every code below it has a wire name
	// in codeNames, and cmd/a1server maps every one but CodeInternal to a
	// status of its own (TestEveryCodeHasStatus).
	NumCodes
)

var codeNames = [NumCodes]string{
	CodeInternal:    "internal",
	CodeParse:       "parse",
	CodeBadParam:    "bad_param",
	CodeNoStart:     "no_start",
	CodeBadToken:    "bad_token",
	CodeWorkingSet:  "working_set",
	CodeRecurse:     "recurse",
	CodeUnavailable: "unavailable",
}

// String names the code; an unknown code reads as "internal".
func (c Code) String() string {
	if c < 0 || c >= NumCodes {
		return codeNames[CodeInternal]
	}
	return codeNames[c]
}

// Error is a classified query error.
type Error struct {
	Code Code
	Err  error
}

func (e *Error) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error for errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// classify wraps err with the Code matching its sentinel, leaving
// already-classified errors untouched.
func classify(err error) error {
	if err == nil {
		return nil
	}
	var qe *Error
	if errors.As(err, &qe) {
		return err
	}
	switch {
	case errors.Is(err, ErrNoStart):
		return &Error{Code: CodeNoStart, Err: err}
	case errors.Is(err, ErrBadToken):
		return &Error{Code: CodeBadToken, Err: err}
	case errors.Is(err, ErrWorkingSet):
		return &Error{Code: CodeWorkingSet, Err: err}
	case errors.Is(err, farm.ErrRegionLost), errors.Is(err, fabric.ErrUnreachable), errors.Is(err, farm.ErrTooOld):
		return &Error{Code: CodeUnavailable, Err: err}
	default:
		return &Error{Code: CodeInternal, Err: err}
	}
}

// parseError builds a CodeParse error.
func parseError(err error) error {
	var qe *Error
	if errors.As(err, &qe) {
		return err
	}
	return &Error{Code: CodeParse, Err: err}
}

// paramError builds a CodeBadParam error.
func paramError(format string, args ...interface{}) error {
	return &Error{Code: CodeBadParam, Err: fmt.Errorf("a1ql: "+format, args...)}
}

// recurseError builds a CodeRecurse error (`_recurse` misuse).
func recurseError(format string, args ...interface{}) error {
	return &Error{Code: CodeRecurse, Err: fmt.Errorf("a1ql: _recurse "+format, args...)}
}
