package query

import (
	"math"

	"a1/internal/bond"
)

// Secondary-index range scans: inequality predicates (_gt/_ge/_lt/_le) on
// an indexed root field are served from the index's ordered B-tree instead
// of a full type scan. The index stores OrderedEncode(attr)+addr keys, and
// OrderedEncode is kind-tagged, so scan bounds must be coerced to the
// indexed field's exact stored kind. Coercion is exact under
// bond.Compare: the coerced range holds precisely the values of that kind
// the predicates accept, so every access path returns the same rows.

// rangeSpec accumulates the bounds inequality predicates place on one
// field. A Null bound is unbounded on that side.
type rangeSpec struct {
	field        string
	lo, hi       bond.Value
	loInc, hiInc bool
}

// rangeSpecs folds a pattern's inequality predicates into per-field bound
// sets, in first-appearance order. Of two comparable bounds on one side
// the tighter wins; of incomparable ones the first (safe: predicates still
// filter per vertex).
func rangeSpecs(preds []Predicate) []*rangeSpec {
	var specs []*rangeSpec
	byField := map[string]*rangeSpec{}
	for _, p := range preds {
		if !rangePred(p) {
			continue
		}
		s := byField[p.Path.Field]
		if s == nil {
			s = &rangeSpec{field: p.Path.Field}
			byField[p.Path.Field] = s
			specs = append(specs, s)
		}
		inc := p.Op == OpGe || p.Op == OpLe
		if p.Op == OpGt || p.Op == OpGe {
			if s.lo.IsNull() {
				s.lo, s.loInc = p.Value, inc
			} else if cmp, ok := bond.Compare(p.Value, s.lo); ok && (cmp > 0 || (cmp == 0 && !inc)) {
				s.lo, s.loInc = p.Value, inc
			}
		} else {
			if s.hi.IsNull() {
				s.hi, s.hiInc = p.Value, inc
			} else if cmp, ok := bond.Compare(p.Value, s.hi); ok && (cmp < 0 || (cmp == 0 && !inc)) {
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
	boundEmpty             // the range excludes the whole domain
	boundFail              // cannot serve from this index; fall back to a scan
)

// coerceRange converts a spec's bounds to the indexed field's stored kind.
// ok=false means the index cannot serve the range; empty=true means no
// stored value can satisfy it.
func coerceRange(s *rangeSpec, k bond.Kind) (lo bond.Value, loInc bool, hi bond.Value, hiInc bool, ok, empty bool) {
	lo, loInc, loSt := coerceBound(s.lo, s.loInc, k, true)
	hi, hiInc, hiSt := coerceBound(s.hi, s.hiInc, k, false)
	for _, st := range []boundStatus{loSt, hiSt} {
		switch st {
		case boundEmpty:
			return lo, loInc, hi, hiInc, true, true
		case boundFail:
			return lo, loInc, hi, hiInc, false, false
		}
	}
	// With no bound left the walk reads the whole index; a plain scan is no
	// worse.
	return lo, loInc, hi, hiInc, !lo.IsNull() || !hi.IsNull(), false
}

// coerceBound converts one bound to kind k. A lower bound becomes the
// least value of kind k the predicate accepts, an upper bound the
// greatest, found with bond.Compare itself: take v's nearest value of
// kind k and step it once if it lies on the wrong side. An exact hit keeps
// inc, so a bound already of kind k passes through as written. A Null
// bound, or one beyond the domain on its open side, comes back Null: no
// bound.
func coerceBound(v bond.Value, inc bool, k bond.Kind, isLo bool) (bond.Value, bool, boundStatus) {
	if v.IsNull() {
		return v, false, boundOK
	}
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
	}
	min, max, ok := kindEdges(k)
	if !ok || !v.Kind().Numeric() {
		return v, inc, boundFail
	}
	below, _ := bond.Compare(v, min)
	above, _ := bond.Compare(v, max)
	switch {
	case below < 0 && isLo, above > 0 && !isLo:
		return bond.Null, false, boundOK
	case below < 0, above > 0:
		return v, inc, boundEmpty
	}
	c := nearest(v, k)
	side, _ := bond.Compare(c, v)
	if (isLo && side < 0) || (!isLo && side > 0) {
		c = step(c, isLo)
	}
	return c, inc || side != 0, boundOK
}

// kindEdges returns numeric kind k's least and greatest values; NaN is
// the greatest float.
func kindEdges(k bond.Kind) (min, max bond.Value, ok bool) {
	switch k {
	case bond.KindInt32:
		return intOfKind(k, math.MinInt32), intOfKind(k, math.MaxInt32), true
	case bond.KindInt64, bond.KindDate:
		return intOfKind(k, math.MinInt64), intOfKind(k, math.MaxInt64), true
	case bond.KindUInt64:
		return bond.UInt64(0), bond.UInt64(math.MaxUint64), true
	case bond.KindFloat, bond.KindDouble:
		return bond.Double(math.Inf(-1)), bond.Double(math.NaN()), true
	}
	return bond.Null, bond.Null, false
}

// nearest converts v, which lies within numeric kind k's domain, to k:
// integer kinds truncate, float kinds round.
func nearest(v bond.Value, k bond.Kind) bond.Value {
	f, isFloat := v.AsFloat(), v.Kind() == bond.KindFloat || v.Kind() == bond.KindDouble
	switch {
	case k == bond.KindFloat:
		return bond.Float(float32(f))
	case k == bond.KindDouble:
		return bond.Double(f)
	case k == bond.KindUInt64 && isFloat:
		return bond.UInt64(uint64(f))
	case k == bond.KindUInt64:
		return bond.UInt64(v.AsUint())
	case isFloat:
		return intOfKind(k, int64(f))
	}
	return intOfKind(k, v.AsInt())
}

// step returns the value of c's kind adjacent to c, above it when up.
func step(c bond.Value, up bool) bond.Value {
	d, dir := int64(-1), math.Inf(-1)
	if up {
		d, dir = 1, math.Inf(1)
	}
	switch c.Kind() {
	case bond.KindFloat:
		return bond.Float(math.Nextafter32(float32(c.AsFloat()), float32(dir)))
	case bond.KindDouble:
		return bond.Double(math.Nextafter(c.AsFloat(), dir))
	case bond.KindUInt64:
		return bond.UInt64(c.AsUint() + uint64(d))
	}
	return intOfKind(c.Kind(), c.AsInt()+d)
}

// intOfKind builds a value of the signed integer kind k.
func intOfKind(k bond.Kind, n int64) bond.Value {
	switch k {
	case bond.KindInt32:
		return bond.Int32(int32(n))
	case bond.KindDate:
		return bond.Date(n)
	}
	return bond.Int64(n)
}
