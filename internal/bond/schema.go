// Package bond implements a Microsoft-Bond-style schematized serialization
// system (paper §3): named struct schemas with numbered, typed fields, a
// compact self-describing binary encoding, and an order-preserving key
// encoding used by B-tree indexes.
//
// A1 enforces schemas on vertex and edge attributes for data integrity and
// compactness; this package provides the type system (primitives, lists,
// maps, nested structs) those schemas are written in.
package bond

import (
	"fmt"
	"sort"
)

// Kind enumerates the wire types of the Bond type system.
type Kind uint8

const (
	KindNone Kind = iota
	KindBool
	KindInt32
	KindInt64
	KindUInt64
	KindFloat
	KindDouble
	KindString
	KindBlob
	KindDate // days since Unix epoch, stored as int64
	KindList
	KindMap
	KindStruct
)

var kindNames = map[Kind]string{
	KindNone: "none", KindBool: "bool", KindInt32: "int32", KindInt64: "int64",
	KindUInt64: "uint64", KindFloat: "float", KindDouble: "double",
	KindString: "string", KindBlob: "blob", KindDate: "date",
	KindList: "list", KindMap: "map", KindStruct: "struct",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Type describes a field type, possibly composite.
type Type struct {
	Kind   Kind
	Elem   *Type   // list element / map value type
	Key    *Type   // map key type
	Struct *Schema // nested struct schema
}

// Convenience scalar types.
var (
	TBool   = Type{Kind: KindBool}
	TInt32  = Type{Kind: KindInt32}
	TInt64  = Type{Kind: KindInt64}
	TUInt64 = Type{Kind: KindUInt64}
	TFloat  = Type{Kind: KindFloat}
	TDouble = Type{Kind: KindDouble}
	TString = Type{Kind: KindString}
	TBlob   = Type{Kind: KindBlob}
	TDate   = Type{Kind: KindDate}
)

// TListOf returns a list type with the given element type.
func TListOf(elem Type) Type { return Type{Kind: KindList, Elem: &elem} }

// TMapOf returns a map type with the given key and value types. Keys must be
// scalar.
func TMapOf(key, val Type) Type { return Type{Kind: KindMap, Key: &key, Elem: &val} }

// TStructOf returns a nested struct type.
func TStructOf(s *Schema) Type { return Type{Kind: KindStruct, Struct: s} }

func (t Type) String() string {
	switch t.Kind {
	case KindList:
		return "list<" + t.Elem.String() + ">"
	case KindMap:
		return "map<" + t.Key.String() + "," + t.Elem.String() + ">"
	case KindStruct:
		return "struct " + t.Struct.Name
	default:
		return t.Kind.String()
	}
}

// Field is one numbered, named, typed slot in a schema.
type Field struct {
	ID       uint16
	Name     string
	Type     Type
	Required bool
}

// F constructs an optional field (the common case).
func F(id uint16, name string, t Type) Field { return Field{ID: id, Name: name, Type: t} }

// FReq constructs a required field.
func FReq(id uint16, name string, t Type) Field {
	return Field{ID: id, Name: name, Type: t, Required: true}
}

// Schema is an ordered set of fields, analogous to a Bond struct definition.
// Schemas are immutable after construction.
type Schema struct {
	Name   string
	Fields []Field
	ids    []uint16 // Fields' ids, ascending
	byID   map[uint16]int
	byName map[string]int
}

// NewSchema builds a schema. Field IDs and names must be unique; fields are
// stored sorted by ID.
func NewSchema(name string, fields ...Field) (*Schema, error) {
	s := &Schema{Name: name, Fields: append([]Field(nil), fields...)}
	sort.Slice(s.Fields, func(i, j int) bool { return s.Fields[i].ID < s.Fields[j].ID })
	s.byID = make(map[uint16]int, len(fields))
	s.byName = make(map[string]int, len(fields))
	for i, f := range s.Fields {
		if f.Name == "" {
			return nil, fmt.Errorf("bond: schema %q: field %d has empty name", name, f.ID)
		}
		if _, dup := s.byID[f.ID]; dup {
			return nil, fmt.Errorf("bond: schema %q: duplicate field id %d", name, f.ID)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("bond: schema %q: duplicate field name %q", name, f.Name)
		}
		s.byID[f.ID] = i
		s.byName[f.Name] = i
		s.ids = append(s.ids, f.ID)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for static declarations.
func MustSchema(name string, fields ...Field) *Schema {
	s, err := NewSchema(name, fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// FieldByID returns the field with the given ID.
func (s *Schema) FieldByID(id uint16) (Field, bool) {
	i, ok := s.byID[id]
	if !ok {
		return Field{}, false
	}
	return s.Fields[i], true
}

// FieldIDs returns the fields' ids, ascending (shared slice; do not
// modify).
func (s *Schema) FieldIDs() []uint16 { return s.ids }

// FieldByName returns the field with the given name.
func (s *Schema) FieldByName(name string) (Field, bool) {
	i, ok := s.byName[name]
	if !ok {
		return Field{}, false
	}
	return s.Fields[i], true
}

// Validate checks that v is a struct value conforming to the schema: every
// present field is declared with a matching type and every required field is
// present and non-zero.
func (s *Schema) Validate(v Value) error {
	if v.Kind() != KindStruct {
		return fmt.Errorf("bond: schema %q: value is %v, not struct", s.Name, v.Kind())
	}
	for _, fv := range v.fields {
		f, ok := s.FieldByID(fv.ID)
		if !ok {
			return fmt.Errorf("bond: schema %q: unknown field id %d", s.Name, fv.ID)
		}
		if err := checkType(f.Type, fv.Value); err != nil {
			return fmt.Errorf("bond: schema %q field %q: %w", s.Name, f.Name, err)
		}
	}
	for _, f := range s.Fields {
		if f.Required {
			fv, ok := v.Field(f.ID)
			if !ok || fv.IsZero() {
				return fmt.Errorf("bond: schema %q: required field %q missing or null", s.Name, f.Name)
			}
		}
	}
	return nil
}

func checkType(t Type, v Value) error {
	if v.Kind() != t.Kind {
		return fmt.Errorf("have %v, want %v", v.Kind(), t.Kind)
	}
	switch t.Kind {
	case KindList:
		for i, e := range v.list {
			if err := checkType(*t.Elem, e); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
	case KindMap:
		for i, kv := range v.kv {
			if err := checkType(*t.Key, kv.Key); err != nil {
				return fmt.Errorf("entry %d key: %w", i, err)
			}
			if err := checkType(*t.Elem, kv.Value); err != nil {
				return fmt.Errorf("entry %d value: %w", i, err)
			}
		}
	case KindStruct:
		return t.Struct.Validate(v)
	}
	return nil
}
