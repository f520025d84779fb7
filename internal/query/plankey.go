package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"a1/internal/bond"
)

// The A1QL reader and the plan key: one pass over a document's raw bytes
// reads it as JSON and reduces it to its *shape* — object keys sorted,
// whitespace dropped — lifting the literals in bindable positions (the `id`
// string, predicate and `_having` constants, `_limit`/`_skip`, `_recurse`
// `_min`/`_max`) out of the key. A lifted literal leaves a marker naming its
// JSON kind; its value joins a list, in key order, that binds the shape's
// synthetic placeholders "$0", "$1", ... — names paramRef rejects, so no
// user placeholder collides with one. The same pass, asked for the decoded
// tree, is the only reader the parser has.

// liftCtx is where a value sits in the A1QL grammar: whether it lifts.
type liftCtx uint8

const (
	inOpaque  liftCtx = iota // nothing at or below lifts
	inPattern                // a vertex, edge, `_recurse` or `_match` pattern, or the `_match` list
	inHaving                 // the `_having` object
	inPred                   // a predicate value: a constant or an operator object
	inConst                  // one operator's constant
	inID                     // `id`
	inCount                  // `_limit`, `_skip`, `_min`, `_max`
)

// memberCtx is the context of the member named key inside an object in
// ctx; as in the parser, an unreserved pattern key names a predicate. A
// literal lifted where the parser wants no placeholder only makes the shape
// fail to parse, and the document is then parsed as written.
func memberCtx(ctx liftCtx, key string) liftCtx {
	switch {
	case ctx == inHaving:
		return inPred
	case ctx == inPred:
		return inConst
	case ctx != inPattern:
		return inOpaque
	}
	switch key {
	case keyID:
		return inID
	case keyLimit, keySkip, keyMin, keyMax:
		return inCount
	case keyHaving:
		return inHaving
	case keyOutEdge, keyInEdge, keyVertex, keyRecurse, keyMatch:
		return inPattern
	}
	if strings.HasPrefix(key, "_") { // `_type`, `_select`, `_orderby`, `_hints`, ...
		return inOpaque
	}
	return inPred
}

// elemCtx is a list element's context: `_match` entries are patterns.
func elemCtx(ctx liftCtx) liftCtx {
	if ctx == inPattern {
		return inPattern
	}
	return inOpaque
}

// lift decides whether a JSON scalar, decoded as by encoding/json with
// UseNumber, lifts at ctx: not a "$name" placeholder, an empty `id` (which
// plans differently) or a number Parse rejects. It returns the value Parse
// builds from it and the JSON kind the key records.
func lift(ctx liftCtx, v interface{}) (bond.Value, byte, bool) {
	constant := ctx == inPred || ctx == inConst
	switch x := v.(type) {
	case string:
		// s == x for a "$name" placeholder and for no other "$"-string.
		if s := unescapeParam(x); (constant || ctx == inID && s != "") && (s != x || !strings.HasPrefix(x, "$")) {
			return bond.String(s), 's', true
		}
	case json.Number:
		if i, err := x.Int64(); err == nil && (constant || ctx == inCount) {
			return bond.Int64(i), 'n', true
		}
		if f, err := x.Float64(); err == nil && constant {
			return bond.Double(f), 'n', true
		}
	case bool:
		if constant {
			return bond.Bool(x), 'b', true
		}
	case nil:
		if constant {
			return bond.Null, 'z', true
		}
	}
	return bond.Null, 0, false
}

// synthParam is a lifted literal's placeholder in a shape's decoded tree:
// "0", "1", ..., its literal's index in key order.
type synthParam string

// isSynthetic reports whether a placeholder name is a lifted literal's.
func isSynthetic(name string) bool { return name != "" && name[0] <= '9' }

// keyScan is one pass of the reader. Its buffers are pooled.
type keyScan struct {
	doc   []byte
	pos   int
	tree  bool          // also decode the document
	key   []byte        // the shape key
	lits  []bond.Value  // the lifted literals, in key order
	synth []*synthParam // each literal's placeholder in the tree (nil without one)
	names []byte        // decoded member names of the objects open on the walk
	mems  []keyMember   // members of the objects open on the walk
	buf   []byte        // scratch: a decoded string, or an object body being reordered
	ltmp  []bond.Value  // scratch: an object's literals being reordered
	stmp  []*synthParam // scratch: their placeholders
}

// keyMember spans one object member's decoded name, key bytes and literals.
type keyMember struct{ name, nameEnd, key, keyEnd, lit, litEnd int }

var keyScans = sync.Pool{New: func() interface{} { return new(keyScan) }}

// run reads doc as a value in ctx into its plan key and lifted literals;
// with tree set it also returns doc as encoding/json decodes it with
// UseNumber, lifted literals as *synthParams. A repeated key is an error.
func (k *keyScan) run(doc []byte, ctx liftCtx, tree bool) (interface{}, error) {
	k.doc, k.pos, k.tree = doc, 0, tree
	k.key, k.lits, k.synth, k.names, k.mems = k.key[:0], k.lits[:0], k.synth[:0], k.names[:0], k.mems[:0]
	v, err := k.value(ctx, 0)
	if err != nil {
		return nil, err
	}
	if k.space(); k.pos < len(k.doc) {
		return nil, errors.New("a1ql: trailing data after the document")
	}
	for i := 0; k.tree && i < len(k.synth); i++ {
		*k.synth[i] = synthParam(strconv.Itoa(i))
	}
	return v, nil
}

// syntax reports invalid JSON at byte at.
func (k *keyScan) syntax(at int) error {
	return fmt.Errorf("a1ql: invalid JSON at byte %d of %d", at, len(k.doc))
}

func (k *keyScan) space() {
	for k.pos < len(k.doc) && strings.IndexByte(" \t\n\r", k.doc[k.pos]) >= 0 {
		k.pos++
	}
}

func (k *keyScan) accept(c byte) bool {
	if k.pos < len(k.doc) && k.doc[k.pos] == c {
		k.pos++
		return true
	}
	return false
}

// lifted appends v's kind marker and value, if v lifts at ctx.
func (k *keyScan) lifted(ctx liftCtx, v interface{}) (interface{}, bool) {
	val, kind, ok := lift(ctx, v)
	if !ok {
		return nil, false
	}
	var p *synthParam
	if k.tree {
		p = new(synthParam)
	}
	k.key = append(k.key, '?', kind)
	k.lits = append(k.lits, val)
	k.synth = append(k.synth, p)
	return p, true
}

// value reads one value inside depth containers; only a tree run keeps it.
func (k *keyScan) value(ctx liftCtx, depth int) (interface{}, error) {
	if k.space(); k.pos >= len(k.doc) {
		return nil, k.syntax(k.pos)
	}
	switch c := k.doc[k.pos]; c {
	case '{', '[':
		if depth == 10000 { // encoding/json's limit
			return nil, fmt.Errorf("a1ql: invalid JSON: nested deeper than 10000 at byte %d", k.pos)
		}
		if c == '{' {
			return k.object(ctx, depth+1)
		}
		return k.array(ctx, depth+1)
	case '"':
		s, err := k.str(k.buf[:0])
		if k.buf = s; err != nil {
			return nil, err
		}
		if ctx != inOpaque {
			if p, ok := k.lifted(ctx, string(s)); ok {
				return p, nil
			}
		}
		if k.key = strconv.AppendQuote(k.key, string(s)); k.tree {
			return string(s), nil
		}
		return nil, nil
	default:
		// A number, true, false or null runs to the first byte none can
		// hold, where valid JSON has a delimiter.
		start := k.pos
		for k.pos < len(k.doc) && strings.IndexByte("+-.0123456789Eeaflnrstu", k.doc[k.pos]) >= 0 {
			k.pos++
		}
		tok := k.doc[start:k.pos]
		v, word := jsonWords[string(tok)]
		if !word && !jsonNumber.Match(tok) {
			return nil, k.syntax(start)
		}
		if lit := v; ctx != inOpaque {
			if !word {
				lit = json.Number(tok)
			}
			if p, ok := k.lifted(ctx, lit); ok {
				return p, nil
			}
		}
		if k.key = append(k.key, tok...); !word && k.tree {
			v = json.Number(tok)
		}
		return v, nil
	}
}

// jsonWords decode as encoding/json decodes them; jsonNumber is JSON's number.
var (
	jsonWords  = map[string]interface{}{"true": true, "false": false, "null": nil}
	jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
)

// items reads the comma-separated items of the container at pos.
func (k *keyScan) items(end byte, item func() error) error {
	k.pos++
	if k.space(); k.accept(end) {
		return nil
	}
	for {
		if err := item(); err != nil {
			return err
		}
		if k.space(); k.accept(end) {
			return nil
		}
		if !k.accept(',') {
			return k.syntax(k.pos)
		}
	}
}

func (k *keyScan) array(ctx liftCtx, depth int) (interface{}, error) {
	var list []interface{}
	if k.tree {
		list = []interface{}{} // encoding/json's empty list is not nil
	}
	k.key = append(k.key, '[')
	err := k.items(']', func() error {
		if k.key[len(k.key)-1] != '[' { // only an array opens with '['
			k.key = append(k.key, ',')
		}
		v, err := k.value(elemCtx(ctx), depth)
		if k.tree {
			list = append(list, v)
		}
		return err
	})
	k.key = append(k.key, ']')
	return list, err
}

// object reads an object's members in document order, then puts their key
// bytes and literals in name order; equal names are a duplicate key.
func (k *keyScan) object(ctx liftCtx, depth int) (interface{}, error) {
	var obj map[string]interface{}
	if k.tree {
		obj = map[string]interface{}{}
	}
	k.key = append(k.key, '{')
	body, lits, first, names := len(k.key), len(k.lits), len(k.mems), len(k.names)
	err := k.items('}', func() error {
		if k.space(); k.pos >= len(k.doc) || k.doc[k.pos] != '"' {
			return k.syntax(k.pos)
		}
		m := keyMember{name: len(k.names), key: len(k.key), lit: len(k.lits)}
		var err error
		if k.names, err = k.str(k.names); err != nil {
			return err
		}
		m.nameEnd = len(k.names)
		name := k.names[m.name:m.nameEnd]
		k.key = strconv.AppendQuote(k.key, string(name))
		if k.space(); !k.accept(':') {
			return k.syntax(k.pos)
		}
		v, err := k.value(memberCtx(ctx, string(name)), depth)
		if err != nil {
			return err
		}
		if obj != nil {
			obj[string(name)] = v
		}
		m.keyEnd, m.litEnd = len(k.key), len(k.lits)
		k.mems = append(k.mems, m)
		return nil
	})
	if err == nil {
		err = k.order(k.mems[first:], body, lits)
	}
	k.mems, k.names = k.mems[:first], k.names[:names]
	k.key = append(k.key, '}')
	return obj, err
}

func (k *keyScan) order(ms []keyMember, body, lits int) error {
	cmp := func(a, b keyMember) int {
		return bytes.Compare(k.names[a.name:a.nameEnd], k.names[b.name:b.nameEnd])
	}
	slices.SortFunc(ms, cmp)
	for i := 1; i < len(ms); i++ {
		if cmp(ms[i-1], ms[i]) == 0 {
			return fmt.Errorf("a1ql: duplicate key %q", k.names[ms[i].name:ms[i].nameEnd])
		}
	}
	k.buf = append(k.buf[:0], k.key[body:]...)
	k.ltmp = append(k.ltmp[:0], k.lits[lits:]...)
	k.stmp = append(k.stmp[:0], k.synth[lits:]...)
	k.key, k.lits, k.synth = k.key[:body], k.lits[:lits], k.synth[:lits]
	for _, m := range ms {
		k.key = append(k.key, k.buf[m.key-body:m.keyEnd-body]...)
		k.lits = append(k.lits, k.ltmp[m.lit-lits:m.litEnd-lits]...)
		k.synth = append(k.synth, k.stmp[m.lit-lits:m.litEnd-lits]...)
	}
	return nil
}

// str decodes the string at pos onto dst: plain ASCII as itself, anything
// else through encoding/json's unquoting.
func (k *keyScan) str(dst []byte) ([]byte, error) {
	plain := true
	for i := k.pos + 1; i < len(k.doc); i++ {
		switch c := k.doc[i]; {
		case c == '"':
			raw := k.doc[k.pos : i+1]
			if k.pos = i + 1; plain {
				return append(dst, raw[1:len(raw)-1]...), nil
			}
			var s string
			if json.Unmarshal(raw, &s) != nil {
				return dst, k.syntax(i + 1 - len(raw))
			}
			return append(dst, s...), nil
		case c == '\\':
			plain = false
			i++
		case c < ' ':
			return dst, k.syntax(i)
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return dst, k.syntax(len(k.doc))
}
