package bond

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Compare is the engine's one order over values: predicates, sort keys,
// merges, _min/_max, _having, group keys and index bounds all order by it.
//   - Numbers compare exactly across int32, int64, date, uint64, float and
//     double: integers as integers, an integer against a float by the
//     float's integer part, then its fraction. −0.0 equals 0.0; NaN equals
//     NaN and sorts above every other number.
//   - Bools order false < true; strings and blobs compare bytewise, with
//     each other too.
//   - Values of different classes order by rank: null < bool < number <
//     string/blob < composites, and composites tie with each other.
//
// c is therefore a total order, and sorts over it are deterministic.
// sameClass reports whether a and b share a comparable class (bool, number
// or string/blob); when false, c is the rank order alone, and a predicate
// holds only as deep (in)equality.
func Compare(a, b Value) (c int, sameClass bool) { return compare(&a, &b) }

// compare is Compare over pointers, for callers that sort values in place.
func compare(a, b *Value) (int, bool) {
	ra, rb := rank(a.kind), rank(b.kind)
	switch {
	case ra != rb || ra == rankNull || ra == rankComposite:
		return cmp.Compare(ra, rb), false
	case ra == rankNumber:
		return compareNums(a, b), true
	case ra == rankBytes:
		as, _ := a.Text()
		bs, _ := b.Text()
		return strings.Compare(as, bs), true
	}
	return cmp.Compare(a.num, b.num), true // bools
}

// Compare's classes, in its cross-class order.
const (
	rankNull = iota
	rankBool
	rankNumber
	rankBytes
	rankComposite
)

// Numeric reports whether k is a number kind, which Compare orders by
// value across kinds.
func (k Kind) Numeric() bool { return rank(k) == rankNumber }

func rank(k Kind) int {
	switch k {
	case KindNone:
		return rankNull
	case KindBool:
		return rankBool
	case KindInt32, KindInt64, KindDate, KindUInt64, KindFloat, KindDouble:
		return rankNumber
	case KindString, KindBlob:
		return rankBytes
	}
	return rankComposite
}

// Text returns a string's or blob's payload; ok is false for other kinds.
func (v Value) Text() (s string, ok bool) {
	switch v.kind {
	case KindString:
		return v.str, true
	case KindBlob:
		return string(v.blob), true
	}
	return "", false
}

// compareNums orders two numbers exactly.
func compareNums(a, b *Value) int {
	af, bf := a.kind == KindFloat || a.kind == KindDouble, b.kind == KindFloat || b.kind == KindDouble
	switch {
	case af && bf:
		// cmp.Compare ranks NaN lowest; on the negations it ranks it highest.
		return cmp.Compare(-b.AsFloat(), -a.AsFloat())
	case af:
		return -compareIntFloat(b.num, b.kind != KindUInt64, a.AsFloat())
	case bf:
		return compareIntFloat(a.num, a.kind != KindUInt64, b.AsFloat())
	}
	return compareInts(a.num, a.kind != KindUInt64, b.num, b.kind != KindUInt64)
}

// compareInts orders two integers given as payload bits and whether each
// is of a signed kind: a negative one is below every other, and integers
// of one sign order as their bits.
func compareInts(a uint64, aSigned bool, b uint64, bSigned bool) int {
	aNeg, bNeg := aSigned && int64(a) < 0, bSigned && int64(b) < 0
	if aNeg != bNeg {
		if aNeg {
			return -1
		}
		return 1
	}
	return cmp.Compare(a, b)
}

// compareIntFloat orders the integer n against f: by f's integer part,
// then by its fraction. NaN and a float beyond every integer kind are
// decided without it.
func compareIntFloat(n uint64, signed bool, f float64) int {
	switch {
	case math.IsNaN(f), f >= 1<<64:
		return -1
	case f < -(1 << 63):
		return 1
	}
	t := math.Trunc(f)
	tn := uint64(t)
	if t < 0 {
		tn = uint64(int64(t))
	}
	if c := compareInts(n, signed, tn, t < 0); c != 0 {
		return c
	}
	return cmp.Compare(t, f)
}

// Order-preserving key encoding for scalar values, used by primary and
// secondary B-tree indexes: OrderedEncode is Compare's byte image within a
// kind. For two scalars a, b of one kind, bytes.Compare of their encodings
// equals Compare(a, b): −0.0 encodes as 0.0 and every NaN as one NaN,
// above +Inf. Values of different kinds order by kind tag, which Compare
// does not follow; an index holds one stored kind per field, and the query
// layer coerces its bounds to that kind.

// OrderedEncode appends the order-preserving encoding of a scalar value.
// It panics on composite kinds, which cannot be index keys.
func OrderedEncode(b []byte, v Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindNone:
	case KindBool:
		b = append(b, byte(v.num))
	case KindInt32, KindInt64, KindDate:
		// Flip the sign bit so negative values sort below positive.
		b = binary.BigEndian.AppendUint64(b, v.num^(1<<63))
	case KindUInt64:
		b = binary.BigEndian.AppendUint64(b, v.num)
	case KindFloat, KindDouble:
		f := v.AsFloat()
		switch {
		case math.IsNaN(f):
			f = math.NaN()
		case f == 0:
			f = 0 // −0.0
		}
		bits := math.Float64bits(f)
		// IEEE754 order: flip all bits of negatives, sign bit of positives.
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		b = binary.BigEndian.AppendUint64(b, bits)
	case KindString:
		b = appendEscaped(b, []byte(v.str))
	case KindBlob:
		b = appendEscaped(b, v.blob)
	default:
		panic(fmt.Sprintf("bond: kind %v cannot be an index key", v.kind))
	}
	return b
}

// appendEscaped appends data with 0x00 escaped as 0x00 0xFF, terminated by
// 0x00 0x00, preserving lexicographic order for variable-length keys that
// are followed by more key components.
func appendEscaped(b, data []byte) []byte {
	for _, c := range data {
		if c == 0x00 {
			b = append(b, 0x00, 0xFF)
		} else {
			b = append(b, c)
		}
	}
	return append(b, 0x00, 0x00)
}

// OrderedDecode decodes one scalar produced by OrderedEncode, returning the
// value and the remaining bytes.
func OrderedDecode(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Null, nil, errTruncated
	}
	kind := Kind(b[0])
	b = b[1:]
	switch kind {
	case KindNone:
		return Null, b, nil
	case KindBool:
		if len(b) < 1 {
			return Null, nil, errTruncated
		}
		return Bool(b[0] != 0), b[1:], nil
	case KindInt32, KindInt64, KindDate:
		if len(b) < 8 {
			return Null, nil, errTruncated
		}
		u := binary.BigEndian.Uint64(b) ^ (1 << 63)
		return Value{kind: kind, num: u}, b[8:], nil
	case KindUInt64:
		if len(b) < 8 {
			return Null, nil, errTruncated
		}
		return UInt64(binary.BigEndian.Uint64(b)), b[8:], nil
	case KindFloat, KindDouble:
		if len(b) < 8 {
			return Null, nil, errTruncated
		}
		bits := binary.BigEndian.Uint64(b)
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		f := math.Float64frombits(bits)
		if kind == KindFloat {
			return Float(float32(f)), b[8:], nil
		}
		return Double(f), b[8:], nil
	case KindString, KindBlob:
		data, rest, err := decodeEscaped(b, true)
		if err != nil {
			return Null, nil, err
		}
		if kind == KindString {
			return String(string(data)), rest, nil
		}
		return Blob(data), rest, nil
	default:
		return Null, nil, fmt.Errorf("bond: bad ordered-key kind byte %d", kind)
	}
}

// OrderedSkip steps over one scalar produced by OrderedEncode, with
// OrderedDecode's checks and errors, without building the value: for
// callers that only need the key well-formed.
func OrderedSkip(b []byte) ([]byte, error) {
	if len(b) > 0 && (Kind(b[0]) == KindString || Kind(b[0]) == KindBlob) {
		_, rest, err := decodeEscaped(b[1:], false)
		return rest, err
	}
	_, rest, err := OrderedDecode(b)
	return rest, err
}

// decodeEscaped undoes appendEscaped; keep=false checks the escapes
// without collecting the bytes.
func decodeEscaped(b []byte, keep bool) (data, rest []byte, err error) {
	for i := 0; i < len(b); i++ {
		if b[i] != 0x00 {
			if keep {
				data = append(data, b[i])
			}
			continue
		}
		if i+1 >= len(b) {
			return nil, nil, errTruncated
		}
		switch b[i+1] {
		case 0xFF:
			if keep {
				data = append(data, 0x00)
			}
			i++
		case 0x00:
			return data, b[i+2:], nil
		default:
			return nil, nil, fmt.Errorf("bond: bad escape byte %#x", b[i+1])
		}
	}
	return nil, nil, errTruncated
}
