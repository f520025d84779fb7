package query

import (
	"slices"
	"strings"
	"sync"

	"a1/internal/bond"
	"a1/internal/core"
)

// Predicate evaluation. Filters run where the data lives and on the bytes
// as stored (paper §3.4): an inPlace walk locates the fields a level tests
// in a vertex's data object or an edge's value, and each predicate compares
// the scalar its path addresses in the encoding — only a composite operand
// is decoded, and only that sub-value. A vertex that survives has just the
// fields its shaping operators read decoded. resolvePath and bond.Compare
// over decoded values serve that shaping: projections, sort and group keys,
// aggregates.

// resolvePath extracts the value a field path addresses. The schema maps
// field names to ids; a nil schema resolves nothing.
func resolvePath(v bond.Value, fp FieldPath, schema *bond.Schema) (bond.Value, bool) {
	if fp.Wildcard {
		return v, true
	}
	if schema == nil {
		return bond.Null, false
	}
	f, ok := schema.FieldByName(fp.Field)
	if !ok {
		return bond.Null, false
	}
	fv, ok := v.Field(f.ID)
	if !ok {
		return bond.Null, false
	}
	switch {
	case fp.IsMap:
		return fv.MapGet(bond.String(fp.MapKey))
	case fp.IsList:
		e := fv.Index(fp.ListIdx)
		return e, !e.IsNull()
	default:
		return fv, true
	}
}

// holds reports whether a comparison outcome satisfies op.
func holds(op Op, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	}
	return false
}

// evalValue applies a comparison — a predicate's, or a `_having` entry's
// (which never has op `_prefix`) — to the decoded value it addresses.
func evalValue(fv bond.Value, op Op, want *bond.Value) bool {
	if op == OpPrefix {
		fs, fok := fv.Text()
		ps, pok := want.Text()
		return fok && pok && strings.HasPrefix(fs, ps)
	}
	cmp, ok := bond.Compare(fv, *want)
	if !ok {
		// Incomparable kinds: only (in)equality by deep-equal is meaningful.
		switch op {
		case OpEq:
			return fv.Equal(*want)
		case OpNe:
			return !fv.Equal(*want)
		}
		return false
	}
	return holds(op, cmp)
}

// evalEncoded applies one predicate to the encoding of the value its path
// addresses. A string or blob compares in place; any other scalar decodes
// without allocating; a composite decodes this sub-value only.
func evalEncoded(enc []byte, p *Predicate) bool {
	b, k := bond.BytesOf(enc)
	if k != bond.KindString && k != bond.KindBlob {
		fv, err := bond.Unmarshal(enc)
		return err == nil && evalValue(fv, p.Op, &p.Value)
	}
	ps, ok := p.Value.Text()
	switch {
	case p.Op == OpPrefix:
		return ok && len(b) >= len(ps) && string(b[:len(ps)]) == ps
	case !ok:
		// A non-string constant never deep-equals a string.
		return p.Op == OpNe
	case string(b) < ps:
		return holds(p.Op, -1)
	case string(b) > ps:
		return holds(p.Op, 1)
	}
	return holds(p.Op, 0)
}

// pathEncoding narrows a field's encoding (nil: absent) to the value fp
// addresses; ok=false wherever resolvePath finds nothing.
func pathEncoding(enc []byte, fp *FieldPath) ([]byte, bool) {
	switch {
	case enc == nil:
		return nil, false
	case fp.IsMap:
		return bond.MapValue(enc, fp.MapKey)
	case fp.IsList:
		e, ok := bond.ListElem(enc, fp.ListIdx)
		_, k := bond.BytesOf(e)
		return e, ok && k != bond.KindNone
	}
	return enc, true
}

// wholeValue marks a "*" predicate: it addresses the whole value.
const wholeValue = -2

// filterLayout is an in-place filter resolved against one schema: the
// fields a walk locates and where each predicate, emitted path and the key
// find theirs among them. Immutable once built: a vertex level's layouts
// are cached on its read set, an edge pattern's built once per batch.
type filterLayout struct {
	schema *bond.Schema // what the layout was resolved against
	vertex bool         // a vertex data object (schema-checked) or an edge value
	pk     uint16       // the vertex type's primary-key field
	all    bool         // every field of the schema is located: a "*" path
	ids    []uint16     // fields the walk locates, ascending
	keep   []bool       // per ids entry: a survivor decodes it
	slots  []int        // per predicate: its field's index in ids, -1 when the type lacks it, or wholeValue
	key    int          // index in ids of the primary-key field
}

// add inserts a field id into the ascending, distinct ids.
func (l *filterLayout) add(id uint16) {
	if i, found := slices.BinarySearch(l.ids, id); !found {
		l.ids = slices.Insert(l.ids, i, id)
	}
}

// field resolves the field fp names; a "*" path or a field the schema
// lacks resolves to nothing.
func (l *filterLayout) field(fp *FieldPath) (uint16, bool) {
	if fp.Wildcard || l.schema == nil {
		return 0, false
	}
	fld, ok := l.schema.FieldByName(fp.Field)
	return fld.ID, ok
}

// slot returns the index in ids of the field fp names.
func (l *filterLayout) slot(fp *FieldPath) int {
	if fp.Wildcard {
		return wholeValue
	}
	if id, ok := l.field(fp); ok {
		if i, found := slices.BinarySearch(l.ids, id); found {
			return i
		}
	}
	return -1
}

// resolve points each predicate at its field among the located ids.
func (l *filterLayout) resolve(preds []Predicate) {
	l.keep, l.slots = make([]bool, len(l.ids)), make([]int, len(preds))
	for i := range preds {
		l.slots[i] = l.slot(&preds[i].Path)
	}
}

// vertexLayout resolves a pattern's filter against a vertex type: its read
// set's fields (every field for a "*" path) plus, for an id test, the
// primary key; keep marks the fields the level's shaping operators read.
func vertexLayout(s *bond.Schema, pk uint16, pat *VertexPattern, read ReadSet) *filterLayout {
	l := &filterLayout{schema: s, vertex: true, pk: pk, all: read.All}
	if l.all {
		l.ids = slices.Clone(s.FieldIDs())
	}
	for _, name := range read.Fields {
		if fld, ok := s.FieldByName(name); ok {
			l.add(fld.ID)
		}
	}
	if read.Key {
		l.add(pk)
	}
	l.resolve(pat.Preds)
	l.key, _ = slices.BinarySearch(l.ids, pk)
	emittedPaths(pat, func(fp *FieldPath) {
		slot := l.slot(fp)
		for i := range l.keep {
			l.keep[i] = l.keep[i] || slot == wholeValue || i == slot
		}
	})
	return l
}

// edgeLayout resolves edge predicates against an edge type's schema (nil
// for a data-less type: only "*" addresses anything).
func edgeLayout(s *bond.Schema, preds []Predicate) *filterLayout {
	l := &filterLayout{schema: s}
	for i := range preds {
		if id, ok := l.field(&preds[i].Path); ok {
			l.add(id)
		}
	}
	l.resolve(preds)
	return l
}

// layout returns the read set's filter layout for v's type, resolved on
// the first vertex of that type and shared by every later execution. pat
// is the pattern the read set was derived from, or a bound copy of it: a
// layout depends on the pattern's field paths, never on its constants.
func (rs ReadSet) layout(v *core.VertexVisit, pat *VertexPattern) *filterLayout {
	if l, ok := rs.layouts.Load(v.Schema); ok && l.(*filterLayout).pk == v.PKField() {
		return l.(*filterLayout)
	}
	l := vertexLayout(v.Schema, v.PKField(), pat, rs)
	rs.layouts.Store(v.Schema, l)
	return l
}

// inPlace is one read step's filter over encoded values, shared by vertex
// and edge predicates: a layout and the encodings it locates in the value
// under test. Pooled: a warm filter allocates nothing.
type inPlace struct {
	*filterLayout
	enc   [][]byte // per ids entry: its encoding in whole, nil when absent
	whole []byte   // the encoding under test
}

var inPlacePool = sync.Pool{New: func() any { return new(inPlace) }}

func getInPlace() *inPlace { return inPlacePool.Get().(*inPlace) }

func putInPlace(f *inPlace) {
	clear(f.enc)
	f.filterLayout, f.whole = nil, nil
	inPlacePool.Put(f)
}

// use points the filter at a layout, sizing the walk's scratch to it.
func (f *inPlace) use(l *filterLayout) {
	f.filterLayout = l
	f.enc = slices.Grow(f.enc[:0], len(l.ids))[:len(l.ids)]
}

// locate walks one encoding, with the checks and errors of the decode it
// replaces: UnmarshalStructFields over the read set (UnmarshalStruct for
// "*") for a vertex, Unmarshal for an edge.
func (f *inPlace) locate(data []byte) error {
	f.whole = data
	switch {
	case !f.vertex:
		return bond.Locate(data, f.ids, f.enc)
	case f.all:
		return bond.LocateStruct(f.schema, data, f.enc)
	}
	return bond.LocateFields(f.schema, data, f.ids, f.enc)
}

// holds applies the predicates the filter was resolved for (conjunction).
func (f *inPlace) holds(preds []Predicate) bool {
	for i := range preds {
		p := &preds[i]
		switch slot := f.slots[i]; {
		case slot == wholeValue:
			// Every field of a vertex's schema, or an edge's whole value.
			var v bond.Value
			var err error
			if f.vertex {
				v, err = bond.DecodeFields(f.ids, f.enc)
			} else {
				v, err = bond.Unmarshal(f.whole)
			}
			if err != nil || !evalValue(v, p.Op, &p.Value) {
				return false
			}
		case slot < 0:
			return false
		default:
			enc, ok := pathEncoding(f.enc[slot], &p.Path)
			if !ok || !evalEncoded(enc, p) {
				return false
			}
		}
	}
	return true
}

// keyIs is the level's id test: the primary key is the string id.
func (f *inPlace) keyIs(id string) bool {
	b, k := bond.BytesOf(f.enc[f.key])
	return k == bond.KindString && string(b) == id
}

// decode builds a survivor's Data: the located fields its level's shaping
// operators read.
func (f *inPlace) decode() (bond.Value, error) {
	for i, keep := range f.keep {
		if !keep {
			f.enc[i] = nil
		}
	}
	return bond.DecodeFields(f.ids, f.enc)
}
