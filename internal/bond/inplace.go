package bond

import (
	"encoding/binary"
	"fmt"
	"math"
)

// In-place reads: a struct's fields located in its encoding rather than
// decoded, so a reader that only tests a field (a query predicate) builds no
// Value for it. A Locate walk makes exactly the checks of the decode it
// stands in for and fails with the same error; it hands out sub-slices of
// the input, each one value's encoding, for MapValue, ListElem and BytesOf
// to read in place and DecodeFields to decode.

// LocateFields is UnmarshalStructFields without the decode: the same walk,
// checks and errors, but where UnmarshalStructFields would decode field
// ids[i] (ids strictly ascending), enc[i] is set to that field's encoding;
// nil when the field is absent or the schema lacks it. len(enc) == len(ids).
func LocateFields(s *Schema, data []byte, ids []uint16, enc [][]byte) error {
	return locate(s, data, ids, enc, false)
}

// LocateStruct is LocateFields over every field of s (enc parallel to
// s.Fields) with UnmarshalStruct's checks and error order: the whole
// encoding's structure first, then field types, then required fields.
func LocateStruct(s *Schema, data []byte, enc [][]byte) error {
	return locate(s, data, s.ids, enc, true)
}

// Locate is Unmarshal without the decode, for values no schema constrains
// (edge data): the same checks and errors, and enc[i] set to the encoding of
// the value's field ids[i] (nil when absent or the value is no struct).
func Locate(data []byte, ids []uint16, enc [][]byte) error {
	return locate(nil, data, ids, enc, true)
}

// locate is the walk behind the Locate functions. s == nil checks structure
// only; structFirst defers a field's schema error until the whole encoding
// has passed the structural checks.
func locate(s *Schema, data []byte, ids []uint16, enc [][]byte, structFirst bool) error {
	clear(enc)
	if len(data) == 0 {
		return errTruncated
	}
	if Kind(data[0]) != KindStruct {
		rest, err := skipValue(data)
		switch {
		case err != nil:
			return err
		case len(rest) != 0:
			return fmt.Errorf("bond: %d trailing bytes", len(rest))
		case s != nil:
			return fmt.Errorf("bond: schema %q: decoded %v, want struct", s.Name, Kind(data[0]))
		}
		return nil
	}
	n, rest, err := readUvarint(data[1:])
	if err != nil {
		return err
	}
	if n > maxDecodeLen {
		return errTruncated
	}
	var typeErr error
	slot, prev := 0, -1
	for i := uint64(0); i < n; i++ {
		var id uint64
		if id, rest, err = readUvarint(rest); err != nil {
			return err
		}
		if id > math.MaxUint16 || int(id) <= prev {
			return fmt.Errorf("bond: struct field ids not strictly ascending")
		}
		prev = int(id)
		field := rest
		if rest, err = skipValue(rest); err != nil {
			return err
		}
		for slot < len(ids) && uint64(ids[slot]) < id {
			slot++
		}
		if slot == len(ids) || uint64(ids[slot]) != id {
			continue
		}
		field = field[:len(field)-len(rest)]
		if s != nil {
			f, known := s.FieldByID(uint16(id))
			if !known {
				continue
			}
			if typeErr == nil {
				if _, err := checkEncoded(f.Type, field); err != nil {
					typeErr = fmt.Errorf("bond: schema %q field %q: %w", s.Name, f.Name, err)
					if !structFirst {
						return typeErr
					}
				}
			}
		}
		enc[slot] = field
	}
	if len(rest) != 0 {
		return fmt.Errorf("bond: %d trailing bytes", len(rest))
	}
	if typeErr != nil || s == nil {
		return typeErr
	}
	for i, id := range ids {
		if f, ok := s.FieldByID(id); ok && f.Required && (enc[i] == nil || zeroEncoded(enc[i])) {
			return fmt.Errorf("bond: schema %q: required field %q missing or null", s.Name, f.Name)
		}
	}
	return nil
}

// checkEncoded is checkType over one value's encoding, which skipValue has
// accepted, returning the bytes after it. A nested struct — rare in vertex
// schemas — is decoded and validated.
func checkEncoded(t Type, b []byte) ([]byte, error) {
	k := Kind(b[0])
	if k != t.Kind {
		return nil, fmt.Errorf("have %v, want %v", k, t.Kind)
	}
	switch k {
	case KindList, KindMap:
		n, rest, _ := readUvarint(b[1:])
		var err error
		for i := uint64(0); i < n; i++ {
			if k == KindList {
				if rest, err = checkEncoded(*t.Elem, rest); err != nil {
					return nil, fmt.Errorf("element %d: %w", i, err)
				}
				continue
			}
			if rest, err = checkEncoded(*t.Key, rest); err != nil {
				return nil, fmt.Errorf("entry %d key: %w", i, err)
			}
			if rest, err = checkEncoded(*t.Elem, rest); err != nil {
				return nil, fmt.Errorf("entry %d value: %w", i, err)
			}
		}
		return rest, nil
	case KindStruct:
		v, rest, _ := decodeValue(b)
		return rest, t.Struct.Validate(v)
	}
	return skipValue(b)
}

// zeroEncoded is Value.IsZero over an accepted encoding.
func zeroEncoded(b []byte) bool {
	switch Kind(b[0]) {
	case KindNone:
		return true
	case KindBool:
		return b[1] == 0
	case KindFloat:
		return binary.LittleEndian.Uint32(b[1:]) == 0
	case KindDouble:
		return binary.LittleEndian.Uint64(b[1:]) == 0
	}
	// Varints (zigzag keeps zero at zero), lengths and counts.
	n, _, _ := readUvarint(b[1:])
	return n == 0
}

// DecodeFields builds the struct a Locate call located: field ids[i] decoded
// from enc[i], nil entries left out.
func DecodeFields(ids []uint16, enc [][]byte) (Value, error) {
	var fields []FieldValue // allocated at the first field: a filter-only survivor decodes nothing
	for i, e := range enc {
		if e == nil {
			continue
		}
		v, err := Unmarshal(e)
		if err != nil {
			return Null, err
		}
		if fields == nil {
			fields = make([]FieldValue, 0, len(enc)-i)
		}
		fields = append(fields, FieldValue{ID: ids[i], Value: v})
	}
	return Value{kind: KindStruct, fields: fields}, nil
}

// MapValue returns the encoding of the value a map holds under the string
// key — the first such entry, as Value.MapGet finds it. ok is false when
// enc is not a map or has no entry for key.
func MapValue(enc []byte, key string) ([]byte, bool) {
	if len(enc) == 0 || Kind(enc[0]) != KindMap {
		return nil, false
	}
	n, rest, err := readUvarint(enc[1:])
	if err != nil {
		return nil, false
	}
	for i := uint64(0); i < n; i++ {
		k, kind := BytesOf(rest)
		val, err := skipValue(rest)
		if err != nil {
			return nil, false
		}
		if rest, err = skipValue(val); err != nil {
			return nil, false
		}
		if kind == KindString && string(k) == key {
			return val[:len(val)-len(rest)], true
		}
	}
	return nil, false
}

// ListElem returns the encoding of a list's element i, as Value.Index finds
// it. ok is false when enc is not a list or i is out of range.
func ListElem(enc []byte, i int) ([]byte, bool) {
	if len(enc) == 0 || Kind(enc[0]) != KindList || i < 0 {
		return nil, false
	}
	n, rest, err := readUvarint(enc[1:])
	if err != nil || uint64(i) >= n {
		return nil, false
	}
	elem := rest
	for ; i >= 0; i-- {
		elem = rest
		if rest, err = skipValue(rest); err != nil {
			return nil, false
		}
	}
	return elem[:len(elem)-len(rest)], true
}

// BytesOf returns the kind of the value encoded at the front of enc (null
// for empty input) and, for a string or blob, its payload, aliasing enc.
func BytesOf(enc []byte) ([]byte, Kind) {
	if len(enc) == 0 {
		return nil, KindNone
	}
	k := Kind(enc[0])
	if k != KindString && k != KindBlob {
		return nil, k
	}
	n, rest, err := readUvarint(enc[1:])
	if err != nil || uint64(len(rest)) < n {
		return nil, k
	}
	return rest[:n], k
}
