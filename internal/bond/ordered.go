package bond

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Order-preserving key encoding for scalar values, used by primary and
// secondary B-tree indexes: for any two scalars a, b of the same kind,
// a.Less(b) iff bytes.Compare(OrderedEncode(a), OrderedEncode(b)) < 0.
// Values of different kinds order by kind tag, matching Value.Less.

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
		bits := math.Float64bits(v.AsFloat())
		// IEEE754 total order: flip all bits of negatives, sign bit of
		// positives.
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
