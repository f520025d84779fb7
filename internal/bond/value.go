package bond

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Value is an immutable Bond value: a tagged union over the Bond type
// system. The zero Value has KindNone and represents null.
type Value struct {
	kind   Kind
	num    uint64 // bool, ints, date, float bits
	str    string // string payload
	blob   []byte
	list   []Value
	kv     []MapEntry
	fields []FieldValue // struct fields, sorted by ID
}

// MapEntry is one key/value pair of a Bond map.
type MapEntry struct {
	Key   Value
	Value Value
}

// FieldValue is one present field of a Bond struct.
type FieldValue struct {
	ID    uint16
	Value Value
}

// Null is the absent value.
var Null = Value{}

// Bool returns a bool value.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Int32 returns an int32 value.
func Int32(i int32) Value { return Value{kind: KindInt32, num: uint64(int64(i))} }

// Int64 returns an int64 value.
func Int64(i int64) Value { return Value{kind: KindInt64, num: uint64(i)} }

// UInt64 returns a uint64 value.
func UInt64(u uint64) Value { return Value{kind: KindUInt64, num: u} }

// Float returns a 32-bit float value.
func Float(f float32) Value { return Value{kind: KindFloat, num: uint64(math.Float32bits(f))} }

// Double returns a 64-bit float value.
func Double(f float64) Value { return Value{kind: KindDouble, num: math.Float64bits(f)} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Blob returns a binary blob value. The slice is not copied.
func Blob(b []byte) Value { return Value{kind: KindBlob, blob: b} }

// Date returns a date value expressed as days since the Unix epoch.
func Date(days int64) Value { return Value{kind: KindDate, num: uint64(days)} }

// List returns a list value over the given elements.
func List(elems ...Value) Value { return Value{kind: KindList, list: elems} }

// Map returns a map value; entries are sorted by key kind, then by Compare,
// so equal maps encode identically.
func Map(entries ...MapEntry) Value {
	es := append([]MapEntry(nil), entries...)
	sort.SliceStable(es, func(i, j int) bool {
		a, b := &es[i].Key, &es[j].Key
		c, _ := compare(a, b)
		return cmp.Or(cmp.Compare(a.kind, b.kind), c) < 0
	})
	return Value{kind: KindMap, kv: es}
}

// StringMap builds a map<string,string> value, the payload shape of the
// knowledge graph's semi-structured entity vertices (paper §5).
func StringMap(m map[string]string) Value {
	es := make([]MapEntry, 0, len(m))
	for k, v := range m {
		//lint:ignore a1/maporder Map sorts entries by encoded key below, so iteration order never reaches the encoding
		es = append(es, MapEntry{Key: String(k), Value: String(v)})
	}
	return Map(es...)
}

// Struct returns a struct value with the given fields; fields are stored
// sorted by ID and duplicate IDs panic.
func Struct(fields ...FieldValue) Value {
	fs := append([]FieldValue(nil), fields...)
	sort.Slice(fs, func(i, j int) bool { return fs[i].ID < fs[j].ID })
	for i := 1; i < len(fs); i++ {
		if fs[i].ID == fs[i-1].ID {
			panic(fmt.Sprintf("bond: duplicate struct field id %d", fs[i].ID))
		}
	}
	return Value{kind: KindStruct, fields: fs}
}

// FV constructs a FieldValue.
func FV(id uint16, v Value) FieldValue { return FieldValue{ID: id, Value: v} }

// Kind returns the value's kind (KindNone for null).
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNone }

// IsZero reports whether the value is null or the zero of its kind.
func (v Value) IsZero() bool {
	switch v.kind {
	case KindNone:
		return true
	case KindBool, KindInt32, KindInt64, KindUInt64, KindFloat, KindDouble, KindDate:
		return v.num == 0
	case KindString:
		return v.str == ""
	case KindBlob:
		return len(v.blob) == 0
	case KindList:
		return len(v.list) == 0
	case KindMap:
		return len(v.kv) == 0
	case KindStruct:
		return len(v.fields) == 0
	}
	return false
}

// AsBool returns the bool payload.
func (v Value) AsBool() bool { return v.num != 0 }

// AsInt returns the integer payload (int32, int64, date).
func (v Value) AsInt() int64 { return int64(v.num) }

// AsUint returns the uint64 payload.
func (v Value) AsUint() uint64 { return v.num }

// AsFloat returns a number as float64: the payload of Float or Double
// values, the nearest float64 of an integer.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return float64(math.Float32frombits(uint32(v.num)))
	case KindDouble:
		return math.Float64frombits(v.num)
	case KindUInt64:
		return float64(v.num)
	}
	return float64(int64(v.num))
}

// AsString returns the string payload.
func (v Value) AsString() string { return v.str }

// AsBlob returns the blob payload.
func (v Value) AsBlob() []byte { return v.blob }

// Len returns the element/entry/field count of composite values.
func (v Value) Len() int {
	switch v.kind {
	case KindList:
		return len(v.list)
	case KindMap:
		return len(v.kv)
	case KindStruct:
		return len(v.fields)
	case KindString:
		return len(v.str)
	case KindBlob:
		return len(v.blob)
	}
	return 0
}

// Index returns list element i.
func (v Value) Index(i int) Value {
	if v.kind != KindList || i < 0 || i >= len(v.list) {
		return Null
	}
	return v.list[i]
}

// Elems returns the list elements (shared slice; do not modify).
func (v Value) Elems() []Value { return v.list }

// Entries returns the map entries (shared slice; do not modify).
func (v Value) Entries() []MapEntry { return v.kv }

// MapGet looks up a map entry by key.
func (v Value) MapGet(key Value) (Value, bool) {
	for _, e := range v.kv {
		if e.Key.Equal(key) {
			return e.Value, true
		}
	}
	return Null, false
}

// Field returns the struct field with the given ID.
func (v Value) Field(id uint16) (Value, bool) {
	i := sort.Search(len(v.fields), func(i int) bool { return v.fields[i].ID >= id })
	if i < len(v.fields) && v.fields[i].ID == id {
		return v.fields[i].Value, true
	}
	return Null, false
}

// FieldValues returns the present struct fields (shared slice; do not
// modify).
func (v Value) FieldValues() []FieldValue { return v.fields }

// WithField returns a copy of a struct value with field id set to fv
// (replacing any existing value).
func (v Value) WithField(id uint16, fv Value) Value {
	out := make([]FieldValue, 0, len(v.fields)+1)
	done := false
	for _, f := range v.fields {
		if f.ID == id {
			out = append(out, FieldValue{ID: id, Value: fv})
			done = true
		} else {
			out = append(out, f)
		}
	}
	if !done {
		out = append(out, FieldValue{ID: id, Value: fv})
	}
	return Struct(out...)
}

// Equal reports deep equality.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNone:
		return true
	case KindBool, KindInt32, KindInt64, KindUInt64, KindFloat, KindDouble, KindDate:
		return v.num == o.num
	case KindString:
		return v.str == o.str
	case KindBlob:
		return string(v.blob) == string(o.blob)
	case KindList:
		if len(v.list) != len(o.list) {
			return false
		}
		for i := range v.list {
			if !v.list[i].Equal(o.list[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if len(v.kv) != len(o.kv) {
			return false
		}
		for i := range v.kv {
			if !v.kv[i].Key.Equal(o.kv[i].Key) || !v.kv[i].Value.Equal(o.kv[i].Value) {
				return false
			}
		}
		return true
	case KindStruct:
		if len(v.fields) != len(o.fields) {
			return false
		}
		for i := range v.fields {
			if v.fields[i].ID != o.fields[i].ID || !v.fields[i].Value.Equal(o.fields[i].Value) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.kind {
	case KindNone:
		return "null"
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindInt32, KindInt64, KindDate:
		return fmt.Sprintf("%d", int64(v.num))
	case KindUInt64:
		return fmt.Sprintf("%d", v.num)
	case KindFloat, KindDouble:
		return fmt.Sprintf("%g", v.AsFloat())
	case KindString:
		return fmt.Sprintf("%q", v.str)
	case KindBlob:
		return fmt.Sprintf("blob(%d)", len(v.blob))
	case KindList:
		parts := make([]string, len(v.list))
		for i, e := range v.list {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ",") + "]"
	case KindMap:
		parts := make([]string, len(v.kv))
		for i, e := range v.kv {
			parts[i] = e.Key.String() + ":" + e.Value.String()
		}
		return "{" + strings.Join(parts, ",") + "}"
	case KindStruct:
		parts := make([]string, len(v.fields))
		for i, f := range v.fields {
			parts[i] = fmt.Sprintf("%d:%s", f.ID, f.Value)
		}
		return "struct{" + strings.Join(parts, ",") + "}"
	}
	return "?"
}
