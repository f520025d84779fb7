package query

import (
	"math"

	"a1/internal/bond"
)

// Secondary-index range scans: inequality predicates (_gt/_ge/_lt/_le) on
// an indexed root field are served from the index's ordered B-tree instead
// of a full type scan. The index stores OrderedEncode(attr)+addr keys, and
// OrderedEncode is kind-tagged, so scan bounds must be coerced to the
// indexed field's exact stored kind; coercion always *widens* when inexact
// (the predicates are re-evaluated per vertex, so an over-approximate
// frontier is safe while a narrowed one would drop answers).

// rangeSpec accumulates the bounds inequality predicates place on one
// field. A Null bound is unbounded on that side.
type rangeSpec struct {
	field        string
	lo, hi       bond.Value
	loInc, hiInc bool
}

// rangeSpecs folds a pattern's inequality predicates into per-field bound
// sets, in first-appearance order. Incomparable duplicate bounds keep the
// wider one (safe: predicates still filter per vertex).
func rangeSpecs(preds []Predicate) []*rangeSpec {
	var specs []*rangeSpec
	byField := map[string]*rangeSpec{}
	for _, p := range preds {
		if !p.Path.plain() {
			continue
		}
		var isLo, inc bool
		switch p.Op {
		case OpGt:
			isLo, inc = true, false
		case OpGe:
			isLo, inc = true, true
		case OpLt:
			isLo, inc = false, false
		case OpLe:
			isLo, inc = false, true
		default:
			continue
		}
		s := byField[p.Path.Field]
		if s == nil {
			s = &rangeSpec{field: p.Path.Field}
			byField[p.Path.Field] = s
			specs = append(specs, s)
		}
		if isLo {
			if s.lo.IsNull() {
				s.lo, s.loInc = p.Value, inc
			} else if cmp, ok := compareValues(p.Value, s.lo); ok && (cmp > 0 || (cmp == 0 && !inc)) {
				s.lo, s.loInc = p.Value, inc
			}
		} else {
			if s.hi.IsNull() {
				s.hi, s.hiInc = p.Value, inc
			} else if cmp, ok := compareValues(p.Value, s.hi); ok && (cmp < 0 || (cmp == 0 && !inc)) {
				s.hi, s.hiInc = p.Value, inc
			}
		}
	}
	return specs
}

// boundStatus classifies one coerced bound.
type boundStatus int

const (
	boundOK    boundStatus = iota
	boundDrop              // wider than the kind's domain: treat as unbounded
	boundEmpty             // the range excludes the whole domain
	boundFail              // cannot serve from this index; fall back to a scan
)

// coerceRange converts a spec's bounds to the indexed field's stored kind.
// ok=false means the index cannot serve the range; empty=true means no
// stored value can satisfy it.
func coerceRange(s *rangeSpec, k bond.Kind) (lo bond.Value, loInc bool, hi bond.Value, hiInc bool, ok, empty bool) {
	lo, loInc = bond.Null, false
	hi, hiInc = bond.Null, false
	if !s.lo.IsNull() {
		v, inc, st := coerceBound(s.lo, s.loInc, k, true)
		switch st {
		case boundOK:
			lo, loInc = v, inc
		case boundDrop:
		case boundEmpty:
			return lo, loInc, hi, hiInc, true, true
		case boundFail:
			return lo, loInc, hi, hiInc, false, false
		}
	}
	if !s.hi.IsNull() {
		v, inc, st := coerceBound(s.hi, s.hiInc, k, false)
		switch st {
		case boundOK:
			hi, hiInc = v, inc
		case boundDrop:
		case boundEmpty:
			return lo, loInc, hi, hiInc, true, true
		case boundFail:
			return lo, loInc, hi, hiInc, false, false
		}
	}
	if lo.IsNull() && hi.IsNull() {
		// Nothing usable survived coercion; a plain scan is no worse.
		return lo, loInc, hi, hiInc, false, false
	}
	return lo, loInc, hi, hiInc, true, false
}

// coerceBound converts one bound value to kind k. isLo distinguishes which
// direction "widening" must round toward.
func coerceBound(v bond.Value, inc bool, k bond.Kind, isLo bool) (bond.Value, bool, boundStatus) {
	switch k {
	case bond.KindString:
		if v.Kind() == bond.KindString {
			return v, inc, boundOK
		}
		return v, inc, boundFail
	case bond.KindBlob:
		if v.Kind() == bond.KindBlob {
			return v, inc, boundOK
		}
		if v.Kind() == bond.KindString {
			return bond.Blob([]byte(v.AsString())), inc, boundOK
		}
		return v, inc, boundFail
	case bond.KindInt32:
		return intBound(v, inc, isLo, math.MinInt32, math.MaxInt32, func(n int64) bond.Value { return bond.Int32(int32(n)) })
	case bond.KindInt64:
		return intBound(v, inc, isLo, math.MinInt64, math.MaxInt64, bond.Int64)
	case bond.KindDate:
		return intBound(v, inc, isLo, math.MinInt64, math.MaxInt64, bond.Date)
	case bond.KindUInt64:
		return uintBound(v, inc, isLo)
	case bond.KindFloat, bond.KindDouble:
		return floatBound(v, inc, isLo, k)
	default:
		return v, inc, boundFail
	}
}

// lossyMargin is the widening needed so an integer bound derived from f
// covers every integer whose float64 image equals f: zero below 2^53
// (float64 is exact there), otherwise one ulp of f's magnitude. The
// per-vertex evaluator compares float64(attr) against the constant, so
// without the margin an exact index bound could exclude attrs whose float
// image still satisfies the predicate.
func lossyMargin(f float64) int64 {
	a := math.Abs(f)
	if a < 1<<53 {
		return 0
	}
	return int64(a/(1<<52)) + 1
}

func satSub(n, m, min int64) int64 {
	if n < min+m {
		return min
	}
	return n - m
}

func satAdd(n, m, max int64) int64 {
	if n > max-m {
		return max
	}
	return n + m
}

// intBound coerces a numeric bound onto a signed integer kind with the
// inclusive domain [min, max]. It works in the evaluator's float space —
// the match set {attr : float64(attr) ⋛ float64(constant)} — so the scan
// bound never excludes a row predicate evaluation would accept; widening
// is trimmed by the residual per-vertex predicate check.
func intBound(v bond.Value, inc, isLo bool, min, max int64, mk func(int64) bond.Value) (bond.Value, bool, boundStatus) {
	if !isNumeric(v.Kind()) {
		return v, inc, boundFail
	}
	f := asFloat(v)
	if math.IsNaN(f) {
		return v, inc, boundFail
	}
	fmin, fmax := float64(min), float64(max) // fmax rounds up to 2^63 for MaxInt64
	if isLo {
		if f > fmax || (f == fmax && !inc) {
			return v, inc, boundEmpty
		}
		if f < fmin || (f == fmin && inc) {
			return v, inc, boundDrop
		}
		var lo int64
		switch {
		case f == fmax:
			// Inclusive domain edge: only attrs whose float image rounds
			// up to f can match; widen down by one ulp.
			lo = satSub(max, lossyMargin(f), min)
		case f != math.Trunc(f):
			// Fractional bounds are exact only below 2^53, where the
			// margin is zero and ceil is the precise threshold.
			lo, inc = int64(math.Ceil(f)), true
		default:
			n := int64(f)
			if m := lossyMargin(f); m > 0 {
				lo, inc = satSub(n, m, min), true
			} else if inc {
				lo = n
			} else if n == max {
				return v, inc, boundEmpty
			} else {
				lo, inc = n+1, true
			}
		}
		return mk(lo), inc, boundOK
	}
	if f < fmin || (f == fmin && !inc) {
		return v, inc, boundEmpty
	}
	if f > fmax || (f == fmax && inc) {
		return v, inc, boundDrop
	}
	var hi int64
	switch {
	case f == fmin:
		hi = satAdd(min, lossyMargin(f), max)
	case f != math.Trunc(f):
		hi, inc = int64(math.Floor(f)), true
	default:
		n := int64(f)
		if m := lossyMargin(f); m > 0 {
			hi, inc = satAdd(n, m, max), true
		} else if inc {
			hi = n
		} else if n == min {
			return v, inc, boundEmpty
		} else {
			hi, inc = n-1, true
		}
	}
	return mk(hi), inc, boundOK
}

// uintBound coerces a numeric bound onto KindUInt64, mirroring intBound
// over the [0, 2^64) domain.
func uintBound(v bond.Value, inc, isLo bool) (bond.Value, bool, boundStatus) {
	if !isNumeric(v.Kind()) {
		return v, inc, boundFail
	}
	f := asFloat(v)
	if math.IsNaN(f) {
		return v, inc, boundFail
	}
	fmax := float64(math.MaxUint64) // rounds up to 2^64
	satSubU := func(n, m uint64) uint64 {
		if n < m {
			return 0
		}
		return n - m
	}
	satAddU := func(n, m uint64) uint64 {
		if n > math.MaxUint64-m {
			return math.MaxUint64
		}
		return n + m
	}
	if isLo {
		if f > fmax || (f == fmax && !inc) {
			return v, inc, boundEmpty
		}
		if f < 0 || (f == 0 && inc) {
			return v, inc, boundDrop
		}
		var lo uint64
		switch {
		case f == fmax:
			lo = satSubU(math.MaxUint64, uint64(lossyMargin(f)))
		case f != math.Trunc(f):
			lo, inc = uint64(math.Ceil(f)), true
		default:
			n := uint64(f)
			if m := uint64(lossyMargin(f)); m > 0 {
				lo, inc = satSubU(n, m), true
			} else if inc {
				lo = n
			} else if n == math.MaxUint64 {
				return v, inc, boundEmpty
			} else {
				lo, inc = n+1, true
			}
		}
		return bond.UInt64(lo), inc, boundOK
	}
	if f < 0 || (f == 0 && !inc) {
		return v, inc, boundEmpty
	}
	if f > fmax || (f == fmax && inc) {
		return v, inc, boundDrop
	}
	var hi uint64
	switch {
	case f == 0:
		hi = 0
	case f != math.Trunc(f):
		hi, inc = uint64(math.Floor(f)), true
	default:
		n := uint64(f)
		if m := uint64(lossyMargin(f)); m > 0 {
			hi, inc = satAddU(n, m), true
		} else if inc {
			hi = n
		} else if n == 0 {
			return v, inc, boundEmpty
		} else {
			hi, inc = n-1, true
		}
	}
	return bond.UInt64(hi), inc, boundOK
}

// floatBound coerces a numeric bound onto a float kind, widening by one
// ulp whenever the conversion could have rounded toward the range.
func floatBound(v bond.Value, inc, isLo bool, k bond.Kind) (bond.Value, bool, boundStatus) {
	if !isNumeric(v.Kind()) {
		return v, inc, boundFail
	}
	f := asFloat(v)
	if math.IsNaN(f) {
		return v, inc, boundFail
	}
	exact := true
	switch v.Kind() {
	case bond.KindInt32, bond.KindInt64, bond.KindDate:
		exact = math.Abs(f) < 1<<53
	case bond.KindUInt64:
		exact = f < 1<<53
	}
	if k == bond.KindFloat {
		f32 := float32(f)
		if !exact || float64(f32) != f {
			if isLo {
				if float64(f32) > f {
					f32 = math.Nextafter32(f32, float32(math.Inf(-1)))
				}
			} else if float64(f32) < f {
				f32 = math.Nextafter32(f32, float32(math.Inf(1)))
			}
			inc = true
		}
		return bond.Float(f32), inc, boundOK
	}
	if !exact {
		// The int64→float64 conversion may have rounded either way; step
		// one ulp outward and make the bound inclusive.
		if isLo {
			f = math.Nextafter(f, math.Inf(-1))
		} else {
			f = math.Nextafter(f, math.Inf(1))
		}
		inc = true
	}
	return bond.Double(f), inc, boundOK
}
