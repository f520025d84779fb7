package bond

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Compact binary encoding, modelled on Bond's compact binary protocol:
// self-describing (each value is tagged with its kind), varint-compressed
// integers with zigzag for signed kinds, and length-prefixed strings, blobs
// and containers. Struct fields are encoded as (id varint, value) pairs in
// ascending ID order so equal values have identical encodings.

// Marshal encodes a value.
func Marshal(v Value) []byte {
	var b []byte
	return appendValue(b, v)
}

// AppendMarshal appends v's encoding to b and returns the extended slice.
// Encoders that already own a buffer (shape keys, wire frames) use this
// instead of Marshal to avoid the intermediate per-value allocation.
func AppendMarshal(b []byte, v Value) []byte {
	return appendValue(b, v)
}

// MarshalSize returns len(Marshal(v)) without encoding anything. Byte
// accounting (row wire sizing, group-state working-set charges) needs only
// the size, so the throwaway Marshal buffer would be pure GC pressure.
func MarshalSize(v Value) int {
	n := 1 // kind byte
	switch v.kind {
	case KindNone:
	case KindBool:
		n++
	case KindInt32, KindInt64, KindDate:
		i := int64(v.num)
		n += uvarintSize(uint64(i<<1) ^ uint64(i>>63))
	case KindUInt64:
		n += uvarintSize(v.num)
	case KindFloat:
		n += 4
	case KindDouble:
		n += 8
	case KindString:
		n += uvarintSize(uint64(len(v.str))) + len(v.str)
	case KindBlob:
		n += uvarintSize(uint64(len(v.blob))) + len(v.blob)
	case KindList:
		n += uvarintSize(uint64(len(v.list)))
		for _, e := range v.list {
			n += MarshalSize(e)
		}
	case KindMap:
		n += uvarintSize(uint64(len(v.kv)))
		for _, e := range v.kv {
			n += MarshalSize(e.Key)
			n += MarshalSize(e.Value)
		}
	case KindStruct:
		n += uvarintSize(uint64(len(v.fields)))
		for _, f := range v.fields {
			n += uvarintSize(uint64(f.ID))
			n += MarshalSize(f.Value)
		}
	default:
		panic(fmt.Sprintf("bond: cannot encode kind %v", v.kind))
	}
	return n
}

func uvarintSize(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// MarshalStruct validates v against the schema and encodes it.
func MarshalStruct(s *Schema, v Value) ([]byte, error) {
	if err := s.Validate(v); err != nil {
		return nil, err
	}
	return Marshal(v), nil
}

// Unmarshal decodes a value produced by Marshal.
func Unmarshal(data []byte) (Value, error) {
	v, rest, err := decodeValue(data)
	if err != nil {
		return Null, err
	}
	if len(rest) != 0 {
		return Null, fmt.Errorf("bond: %d trailing bytes", len(rest))
	}
	return v, nil
}

// UnmarshalStruct decodes and validates against the schema. Unknown fields
// (from a newer schema version) are dropped rather than rejected, giving
// the forward compatibility Bond provides.
func UnmarshalStruct(s *Schema, data []byte) (Value, error) {
	v, err := Unmarshal(data)
	if err != nil {
		return Null, err
	}
	if v.Kind() != KindStruct {
		return Null, fmt.Errorf("bond: schema %q: decoded %v, want struct", s.Name, v.Kind())
	}
	// Dropping unknown fields is the upgrade path, not the common case:
	// when every field is known (steady state) the decoded value is used
	// as-is instead of copying the field list per decode.
	known := true
	for _, f := range v.fields {
		if _, ok := s.FieldByID(f.ID); !ok {
			known = false
			break
		}
	}
	if !known {
		kept := v.fields[:0:0]
		for _, f := range v.fields {
			if _, ok := s.FieldByID(f.ID); ok {
				kept = append(kept, f)
			}
		}
		v = Value{kind: KindStruct, fields: kept}
	}
	if err := s.Validate(v); err != nil {
		return Null, err
	}
	return v, nil
}

// UnmarshalStructFields is the projected UnmarshalStruct: it decodes only
// the top-level fields whose ids appear in ids (strictly ascending) and
// walks past every other field without building its value, so a reader
// that consumes one attribute does not pay for the rest of the payload.
// The result equals UnmarshalStruct's restricted to ids. The whole
// encoding is still walked, so malformed or truncated input fails exactly
// where the full decode fails; schema validation covers the decoded fields
// only (stored payloads were validated whole when written).
func UnmarshalStructFields(s *Schema, data []byte, ids []uint16) (Value, error) {
	enc := make([][]byte, len(ids))
	if err := LocateFields(s, data, ids, enc); err != nil {
		return Null, err
	}
	return DecodeFields(ids, enc)
}

// skipValue walks past one encoded value with decodeValue's structural
// checks and none of its allocations.
func skipValue(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return nil, errTruncated
	}
	kind := Kind(b[0])
	b = b[1:]
	fixed := 0
	switch kind {
	case KindNone:
		return b, nil
	case KindBool:
		fixed = 1
	case KindFloat:
		fixed = 4
	case KindDouble:
		fixed = 8
	case KindInt32, KindInt64, KindDate, KindUInt64, KindString, KindBlob, KindList, KindMap, KindStruct:
	default:
		return nil, fmt.Errorf("bond: unknown kind byte %d", kind)
	}
	if fixed > 0 {
		if len(b) < fixed {
			return nil, errTruncated
		}
		return b[fixed:], nil
	}
	n, rest, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindInt32, KindInt64, KindDate, KindUInt64:
		return rest, nil
	case KindString, KindBlob:
		if n > maxDecodeLen || uint64(len(rest)) < n {
			return nil, errTruncated
		}
		return rest[n:], nil
	}
	// Containers: n elements, map entries or ⟨id, value⟩ fields.
	if n > maxDecodeLen {
		return nil, errTruncated
	}
	prev := -1
	for i := uint64(0); i < n; i++ {
		switch kind {
		case KindMap:
			if rest, err = skipValue(rest); err != nil {
				return nil, err
			}
		case KindStruct:
			var id uint64
			if id, rest, err = readUvarint(rest); err != nil {
				return nil, err
			}
			if id > math.MaxUint16 || int(id) <= prev {
				return nil, fmt.Errorf("bond: struct field ids not strictly ascending")
			}
			prev = int(id)
		}
		if rest, err = skipValue(rest); err != nil {
			return nil, err
		}
	}
	return rest, nil
}

func appendUvarint(b []byte, u uint64) []byte {
	return binary.AppendUvarint(b, u)
}

func appendZigzag(b []byte, i int64) []byte {
	return binary.AppendUvarint(b, uint64(i<<1)^uint64(i>>63))
}

func appendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindNone:
	case KindBool:
		b = append(b, byte(v.num))
	case KindInt32, KindInt64, KindDate:
		b = appendZigzag(b, int64(v.num))
	case KindUInt64:
		b = appendUvarint(b, v.num)
	case KindFloat:
		b = binary.LittleEndian.AppendUint32(b, uint32(v.num))
	case KindDouble:
		b = binary.LittleEndian.AppendUint64(b, v.num)
	case KindString:
		b = appendUvarint(b, uint64(len(v.str)))
		b = append(b, v.str...)
	case KindBlob:
		b = appendUvarint(b, uint64(len(v.blob)))
		b = append(b, v.blob...)
	case KindList:
		b = appendUvarint(b, uint64(len(v.list)))
		for _, e := range v.list {
			b = appendValue(b, e)
		}
	case KindMap:
		b = appendUvarint(b, uint64(len(v.kv)))
		for _, e := range v.kv {
			b = appendValue(b, e.Key)
			b = appendValue(b, e.Value)
		}
	case KindStruct:
		b = appendUvarint(b, uint64(len(v.fields)))
		for _, f := range v.fields {
			b = appendUvarint(b, uint64(f.ID))
			b = appendValue(b, f.Value)
		}
	default:
		panic(fmt.Sprintf("bond: cannot encode kind %v", v.kind))
	}
	return b
}

var errTruncated = fmt.Errorf("bond: truncated input")

func readUvarint(b []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return u, b[n:], nil
}

func readZigzag(b []byte) (int64, []byte, error) {
	u, rest, err := readUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	return int64(u>>1) ^ -int64(u&1), rest, nil
}

const maxDecodeLen = 1 << 28 // defensive cap against corrupt length prefixes

func decodeValue(b []byte) (Value, []byte, error) {
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
		i, rest, err := readZigzag(b)
		if err != nil {
			return Null, nil, err
		}
		return Value{kind: kind, num: uint64(i)}, rest, nil
	case KindUInt64:
		u, rest, err := readUvarint(b)
		if err != nil {
			return Null, nil, err
		}
		return UInt64(u), rest, nil
	case KindFloat:
		if len(b) < 4 {
			return Null, nil, errTruncated
		}
		return Value{kind: KindFloat, num: uint64(binary.LittleEndian.Uint32(b))}, b[4:], nil
	case KindDouble:
		if len(b) < 8 {
			return Null, nil, errTruncated
		}
		return Double(math.Float64frombits(binary.LittleEndian.Uint64(b))), b[8:], nil
	case KindString, KindBlob:
		n, rest, err := readUvarint(b)
		if err != nil {
			return Null, nil, err
		}
		if n > maxDecodeLen || uint64(len(rest)) < n {
			return Null, nil, errTruncated
		}
		if kind == KindString {
			return String(string(rest[:n])), rest[n:], nil
		}
		blob := make([]byte, n)
		copy(blob, rest[:n])
		return Blob(blob), rest[n:], nil
	case KindList:
		n, rest, err := readUvarint(b)
		if err != nil {
			return Null, nil, err
		}
		if n > maxDecodeLen {
			return Null, nil, errTruncated
		}
		// Every element takes at least a byte, so a corrupt count reserves
		// no more than the input left could hold (maps and structs alike).
		elems := make([]Value, 0, min(n, uint64(len(rest))))
		for i := uint64(0); i < n; i++ {
			var e Value
			e, rest, err = decodeValue(rest)
			if err != nil {
				return Null, nil, err
			}
			elems = append(elems, e)
		}
		return Value{kind: KindList, list: elems}, rest, nil
	case KindMap:
		n, rest, err := readUvarint(b)
		if err != nil {
			return Null, nil, err
		}
		if n > maxDecodeLen {
			return Null, nil, errTruncated
		}
		kv := make([]MapEntry, 0, min(n, uint64(len(rest))))
		for i := uint64(0); i < n; i++ {
			var k, v Value
			k, rest, err = decodeValue(rest)
			if err != nil {
				return Null, nil, err
			}
			v, rest, err = decodeValue(rest)
			if err != nil {
				return Null, nil, err
			}
			kv = append(kv, MapEntry{Key: k, Value: v})
		}
		return Value{kind: KindMap, kv: kv}, rest, nil
	case KindStruct:
		n, rest, err := readUvarint(b)
		if err != nil {
			return Null, nil, err
		}
		if n > maxDecodeLen {
			return Null, nil, errTruncated
		}
		fields := make([]FieldValue, 0, min(n, uint64(len(rest))))
		prev := -1
		for i := uint64(0); i < n; i++ {
			var id uint64
			id, rest, err = readUvarint(rest)
			if err != nil {
				return Null, nil, err
			}
			if id > math.MaxUint16 || int(id) <= prev {
				return Null, nil, fmt.Errorf("bond: struct field ids not strictly ascending")
			}
			prev = int(id)
			var fv Value
			fv, rest, err = decodeValue(rest)
			if err != nil {
				return Null, nil, err
			}
			fields = append(fields, FieldValue{ID: uint16(id), Value: fv})
		}
		return Value{kind: KindStruct, fields: fields}, rest, nil
	default:
		return Null, nil, fmt.Errorf("bond: unknown kind byte %d", kind)
	}
}
