package bond

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

var actorSchema = MustSchema("Actor",
	FReq(0, "name", TString),
	F(1, "origin", TString),
	F(2, "birth_date", TDate),
)

func TestScalarRoundTrip(t *testing.T) {
	cases := []Value{
		Null,
		Bool(true), Bool(false),
		Int32(0), Int32(-1), Int32(math.MaxInt32), Int32(math.MinInt32),
		Int64(math.MaxInt64), Int64(math.MinInt64),
		UInt64(0), UInt64(math.MaxUint64),
		Float(3.5), Float(-0.25),
		Double(math.Pi), Double(-math.MaxFloat64),
		String(""), String("tom hanks"), String("日本語\x00binary"),
		Blob(nil), Blob([]byte{0, 1, 2, 255}),
		Date(18000), Date(-5),
	}
	for _, v := range cases {
		got, err := Unmarshal(Marshal(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestCompositeRoundTrip(t *testing.T) {
	v := Struct(
		FV(0, String("steven.spielberg")),
		FV(1, List(String("jaws"), String("et"), Int32(1975))),
		FV(2, Map(
			MapEntry{Key: String("genre"), Value: String("thriller")},
			MapEntry{Key: String("awards"), Value: Int32(3)},
		)),
		FV(3, Struct(FV(0, Bool(true)))),
	)
	got, err := Unmarshal(Marshal(v))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Errorf("round trip mismatch:\n have %v\n want %v", got, v)
	}
}

func TestSchemaValidate(t *testing.T) {
	ok := Struct(FV(0, String("tom")), FV(1, String("usa")), FV(2, Date(100)))
	if err := actorSchema.Validate(ok); err != nil {
		t.Errorf("valid value rejected: %v", err)
	}
	missingRequired := Struct(FV(1, String("usa")))
	if err := actorSchema.Validate(missingRequired); err == nil {
		t.Error("missing required field accepted")
	}
	wrongType := Struct(FV(0, String("tom")), FV(2, String("not a date")))
	if err := actorSchema.Validate(wrongType); err == nil {
		t.Error("wrong field type accepted")
	}
	unknownField := Struct(FV(0, String("tom")), FV(9, Bool(true)))
	if err := actorSchema.Validate(unknownField); err == nil {
		t.Error("unknown field accepted")
	}
	notStruct := String("tom")
	if err := actorSchema.Validate(notStruct); err == nil {
		t.Error("non-struct accepted")
	}
}

func TestUnmarshalStructDropsUnknownFields(t *testing.T) {
	// A newer writer added field 7; an old reader must still decode.
	newer := Struct(FV(0, String("tom")), FV(7, String("extra")))
	got, err := UnmarshalStruct(actorSchema, Marshal(newer))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Field(7); ok {
		t.Error("unknown field survived schema decode")
	}
	if name, _ := got.Field(0); name.AsString() != "tom" {
		t.Errorf("name = %v", name)
	}
}

// TestUnmarshalStructFields: the projected decode returns exactly the
// requested known fields, walks past everything else — including composite
// and unknown fields — and rejects what the full decode rejects.
func TestUnmarshalStructFields(t *testing.T) {
	nested := Struct(FV(0, Int32(1)), FV(4, List(String("x"), String("y"))))
	v := Struct(
		FV(0, String("tom")),
		FV(1, String("usa")),
		FV(2, Date(7)),
		FV(7, Map(MapEntry{String("k"), nested})), // from a newer schema
	)
	data := Marshal(v)
	got, err := UnmarshalStructFields(actorSchema, data, []uint16{1, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(Struct(FV(1, String("usa")))) {
		t.Errorf("projected = %v, want only origin", got)
	}
	if got, err = UnmarshalStructFields(actorSchema, data, nil); err != nil || len(got.FieldValues()) != 0 {
		t.Errorf("empty projection = %v, %v", got, err)
	}
	// A requested required field must be present; an unrequested one is
	// not the projection's business.
	anon := Marshal(Struct(FV(1, String("usa"))))
	if _, err := UnmarshalStructFields(actorSchema, anon, []uint16{0, 1}); err == nil {
		t.Error("missing required field accepted when requested")
	}
	if _, err := UnmarshalStructFields(actorSchema, anon, []uint16{1}); err != nil {
		t.Errorf("unrequested required field: %v", err)
	}
	if _, err := UnmarshalStructFields(actorSchema, Marshal(Struct(FV(1, Int32(3)))), []uint16{1}); err == nil {
		t.Error("mistyped requested field accepted")
	}
	// Malformed bytes inside a field the projection skips still fail.
	for i, bad := range [][]byte{
		{99},                       // unknown kind
		{byte(KindInt64)},          // truncated varint
		{byte(KindString), 200, 1}, // length > input
		{byte(KindStruct), 2, 5, byte(KindBool), 1, 3, byte(KindBool), 1}, // ids descending
		{byte(KindMap), 1, byte(KindBool), 1},                             // entry without a value
	} {
		data := append([]byte{byte(KindStruct), 1, 1}, bad...)
		_, fullErr := UnmarshalStruct(actorSchema, data)
		_, projErr := UnmarshalStructFields(actorSchema, data, []uint16{0})
		if fullErr == nil || projErr == nil {
			t.Errorf("case %d: full err %v, projected err %v", i, fullErr, projErr)
		}
	}
	if _, err := UnmarshalStructFields(actorSchema, append(data, 0xAA), nil); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := UnmarshalStructFields(actorSchema, Marshal(Int32(5)), nil); err == nil {
		t.Error("non-struct payload accepted")
	}
}

func TestMarshalStructValidates(t *testing.T) {
	if _, err := MarshalStruct(actorSchema, Struct(FV(1, String("no name")))); err == nil {
		t.Error("MarshalStruct accepted invalid value")
	}
}

func TestMapCanonicalOrder(t *testing.T) {
	a := Map(MapEntry{String("b"), Int32(2)}, MapEntry{String("a"), Int32(1)})
	b := Map(MapEntry{String("a"), Int32(1)}, MapEntry{String("b"), Int32(2)})
	if !bytes.Equal(Marshal(a), Marshal(b)) {
		t.Error("equal maps encode differently")
	}
}

func TestStringMapAccess(t *testing.T) {
	m := StringMap(map[string]string{"character": "Batman", "year": "1989"})
	v, ok := m.MapGet(String("character"))
	if !ok || v.AsString() != "Batman" {
		t.Errorf("MapGet(character) = %v, %v", v, ok)
	}
	if _, ok := m.MapGet(String("missing")); ok {
		t.Error("MapGet on absent key returned ok")
	}
}

func TestDecodeGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{99},                       // unknown kind
		{byte(KindInt64)},          // truncated varint
		{byte(KindString), 200, 1}, // length > input
		{byte(KindStruct), 2, 5, byte(KindBool), 1, 3, byte(KindBool), 1}, // ids descending
		append(Marshal(Int32(5)), 0xAA),                                   // trailing bytes
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: garbage %v decoded without error", i, c)
		}
	}
}

// randomValue builds arbitrary values for the property test, bounded in
// depth so containers stay small.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(12)
	if depth <= 0 {
		k = r.Intn(9) // scalars only
	}
	switch k {
	case 0:
		return Bool(r.Intn(2) == 0)
	case 1:
		return Int32(int32(r.Uint32()))
	case 2:
		return Int64(int64(r.Uint64()))
	case 3:
		return UInt64(r.Uint64())
	case 4:
		return Float(float32(r.NormFloat64()))
	case 5:
		return Double(r.NormFloat64())
	case 6:
		buf := make([]byte, r.Intn(20))
		r.Read(buf)
		return String(string(buf))
	case 7:
		buf := make([]byte, r.Intn(20))
		r.Read(buf)
		return Blob(buf)
	case 8:
		return Date(int64(int32(r.Uint32())))
	case 9:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return List(elems...)
	case 10:
		n := r.Intn(4)
		entries := make([]MapEntry, n)
		for i := range entries {
			entries[i] = MapEntry{Key: Int32(int32(i)), Value: randomValue(r, depth-1)}
		}
		return Map(entries...)
	default:
		n := r.Intn(4)
		fields := make([]FieldValue, 0, n)
		for i := 0; i < n; i++ {
			fields = append(fields, FV(uint16(i*3), randomValue(r, depth-1)))
		}
		return Struct(fields...)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		got, err := Unmarshal(Marshal(v))
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickOrderedEncodePreservesOrder(t *testing.T) {
	gens := []func(r *rand.Rand) Value{
		func(r *rand.Rand) Value { return Int64(int64(r.Uint64())) },
		func(r *rand.Rand) Value { return UInt64(r.Uint64()) },
		func(r *rand.Rand) Value { return Double(r.NormFloat64() * 1e6) },
		func(r *rand.Rand) Value {
			buf := make([]byte, r.Intn(12))
			r.Read(buf)
			return String(string(buf))
		},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gen := gens[r.Intn(len(gens))]
		a, b := gen(r), gen(r)
		ea := OrderedEncode(nil, a)
		eb := OrderedEncode(nil, b)
		c, _ := Compare(a, b)
		return bytes.Compare(ea, eb) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// fuzzKinds are the scalar kinds FuzzValueOrder builds values of.
var fuzzKinds = []Kind{KindBool, KindInt32, KindInt64, KindDate, KindUInt64, KindFloat, KindDouble, KindString, KindBlob}

// fuzzValue builds a scalar from raw bits: k's low nibble picks the kind,
// its high nibble a string's or blob's length, taken from bits' big-endian
// bytes (so it holds 0x00 as often as not). Floats take the bits as they
// are: NaNs of either sign and any payload, ±0, ±Inf, subnormals.
func fuzzValue(k byte, bits uint64) Value {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], bits)
	text := raw[:int(k>>4)%9]
	switch kind := fuzzKinds[int(k&0xF)%len(fuzzKinds)]; kind {
	case KindBool:
		return Bool(bits&1 == 1)
	case KindInt32:
		return Int32(int32(bits))
	case KindFloat:
		return Float(math.Float32frombits(uint32(bits)))
	case KindDouble:
		return Double(math.Float64frombits(bits))
	case KindString:
		return String(string(text))
	case KindBlob:
		return Blob(text)
	default:
		return Value{kind: kind, num: bits}
	}
}

// exactCmp is FuzzValueOrder's oracle for two numbers: NaN equals NaN and
// sorts above every other number; the rest compare as big.Float, which
// holds every int64, uint64 and float64 exactly (±Inf included).
func exactCmp(a, b Value) int {
	isNaN := func(v Value) bool { return (v.kind == KindFloat || v.kind == KindDouble) && math.IsNaN(v.AsFloat()) }
	an, bn := isNaN(a), isNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	toBig := func(v Value) *big.Float {
		x := new(big.Float)
		switch v.kind {
		case KindUInt64:
			return x.SetUint64(v.num)
		case KindFloat, KindDouble:
			return x.SetFloat64(v.AsFloat())
		}
		return x.SetInt64(int64(v.num))
	}
	return toBig(a).Cmp(toBig(b))
}

// FuzzValueOrder holds Compare to its contract over three scalars: it is
// antisymmetric and transitive; within a kind it is the byte order of
// OrderedEncode; across numeric kinds it is the exact big.Float order with
// NaN above every number.
func FuzzValueOrder(f *testing.F) {
	const (
		boolK, int32K, int64K, dateK, uint64K, floatK, doubleK, stringK, blobK = 0, 1, 2, 3, 4, 5, 6, 7, 8
	)
	negZero, nan := math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.NaN())
	f.Add(byte(doubleK), negZero, byte(doubleK), uint64(0), byte(int64K), uint64(0))
	f.Add(byte(doubleK), nan, byte(doubleK), nan|1<<63|5, byte(doubleK), math.Float64bits(math.Inf(1)))
	f.Add(byte(floatK), uint64(0xFFC00001), byte(doubleK), nan, byte(uint64K), uint64(math.MaxUint64))
	f.Add(byte(doubleK), uint64(1), byte(doubleK), uint64(1)|1<<63, byte(int32K), uint64(0))                     // subnormals
	f.Add(byte(int64K), uint64(1<<53+1), byte(doubleK), math.Float64bits(1<<53), byte(uint64K), uint64(1<<53+1)) // past float64's integers
	f.Add(byte(int64K), uint64(math.MaxUint64), byte(uint64K), uint64(math.MaxUint64), byte(doubleK), math.Float64bits(math.Inf(-1)))
	f.Add(byte(stringK|3<<4), uint64(0x61000000), byte(stringK|1<<4), uint64(0x61000000), byte(blobK|2<<4), uint64(0x6100<<48))
	f.Add(byte(boolK), uint64(1), byte(dateK), uint64(1), byte(stringK), uint64(0))
	f.Fuzz(func(t *testing.T, ka byte, a uint64, kb byte, b uint64, kc byte, c uint64) {
		vs := []Value{fuzzValue(ka, a), fuzzValue(kb, b), fuzzValue(kc, c)}
		for _, x := range vs {
			for _, y := range vs {
				cxy, sxy := Compare(x, y)
				cyx, syx := Compare(y, x)
				if cxy != -cyx || sxy != syx {
					t.Fatalf("Compare(%v %v, %v %v) = %d/%v, reversed %d/%v", x.kind, x, y.kind, y, cxy, sxy, cyx, syx)
				}
				if x.kind == y.kind {
					if got := bytes.Compare(OrderedEncode(nil, x), OrderedEncode(nil, y)); got != cxy {
						t.Fatalf("%v: encodings of %v, %v order %d, Compare %d", x.kind, x, y, got, cxy)
					}
				}
				if rank(x.kind) == rankNumber && rank(y.kind) == rankNumber {
					if want := exactCmp(x, y); cxy != want {
						t.Fatalf("Compare(%v %v, %v %v) = %d, exact %d", x.kind, x, y.kind, y, cxy, want)
					}
				}
			}
		}
		slices.SortFunc(vs, func(x, y Value) int { c, _ := Compare(x, y); return c })
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				if c, _ := Compare(vs[i], vs[j]); c > 0 {
					t.Fatalf("not transitive: sorted %v, yet Compare(%v, %v) = %d", vs, vs[i], vs[j], c)
				}
			}
		}
	})
}

// compareSink keeps BenchmarkCompareValues' results live.
var compareSink int

// BenchmarkCompareValues times one numeric comparison per operand pair:
// the sort, aggregate and `_having` inner loop.
func BenchmarkCompareValues(b *testing.B) {
	for _, bc := range []struct {
		name string
		a, c Value
	}{
		{"int64", Int64(1<<53 + 1), Int64(1 << 53)},
		{"int-double", Int64(1<<53 + 1), Double(1<<53 + 0.5)},
		{"double", Double(2.5), Double(3.5)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				n, _ := Compare(bc.a, bc.c)
				compareSink += n
			}
		})
	}
}

func TestQuickOrderedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 0) // scalars only
		enc := OrderedEncode(nil, v)
		got, rest, err := OrderedDecode(enc)
		if err != nil || len(rest) != 0 {
			return false
		}
		if v.Kind() == KindFloat || v.Kind() == KindDouble {
			return got.AsFloat() == v.AsFloat()
		}
		return got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestOrderedSkipMatchesDecode: OrderedSkip leaves the same rest and fails
// with the same error as OrderedDecode, on every scalar's encoding followed
// by more key bytes, on each of its prefixes, and with each byte damaged.
func TestOrderedSkipMatchesDecode(t *testing.T) {
	same := func(b []byte) bool {
		_, wantRest, wantErr := OrderedDecode(b)
		rest, err := OrderedSkip(b)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(rest, wantRest) {
			t.Errorf("OrderedSkip(%x) = %x, %v; OrderedDecode leaves %x, %v", b, rest, err, wantRest, wantErr)
			return false
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		enc := OrderedEncode(nil, randomValue(r, 0))
		if r.Intn(3) == 0 {
			enc = append(enc, 0x00, 0x00, 0xFF, 0x00, 0x01) // escape bytes in the string case
		}
		enc = OrderedEncode(enc, Int64(r.Int63()))
		for i := 0; i <= len(enc); i++ {
			if !same(enc[:i]) {
				return false
			}
		}
		for i := range enc {
			damaged := bytes.Clone(enc)
			damaged[i] = byte(r.Intn(256))
			if !same(damaged) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestOrderedEncodeCompositeKeys(t *testing.T) {
	// Multi-component keys: (string, int64) pairs must order
	// component-wise, including strings with embedded zero bytes.
	k := func(s string, i int64) []byte {
		b := OrderedEncode(nil, String(s))
		return OrderedEncode(b, Int64(i))
	}
	pairs := [][]byte{
		k("", -5), k("", 7), k("a", 0), k("a\x00b", 0), k("a\x01", 0), k("ab", -9),
	}
	for i := 1; i < len(pairs); i++ {
		if bytes.Compare(pairs[i-1], pairs[i]) >= 0 {
			t.Errorf("composite keys %d and %d out of order", i-1, i)
		}
	}
}

func TestWithField(t *testing.T) {
	v := Struct(FV(0, String("a")), FV(2, Int32(1)))
	v2 := v.WithField(1, Bool(true))
	if got, _ := v2.Field(1); !got.AsBool() {
		t.Error("WithField did not add field 1")
	}
	v3 := v2.WithField(0, String("b"))
	if got, _ := v3.Field(0); got.AsString() != "b" {
		t.Error("WithField did not replace field 0")
	}
	if got, _ := v.Field(0); got.AsString() != "a" {
		t.Error("WithField mutated the original")
	}
}

func TestValueAccessors(t *testing.T) {
	l := List(Int32(1), Int32(2))
	if l.Index(0).AsInt() != 1 || l.Index(1).AsInt() != 2 {
		t.Error("Index broken")
	}
	if !l.Index(5).IsNull() || !l.Index(-1).IsNull() {
		t.Error("out-of-range Index should be null")
	}
	if l.Len() != 2 {
		t.Error("Len broken")
	}
	if !reflect.DeepEqual(len(l.Elems()), 2) {
		t.Error("Elems broken")
	}
}

func TestIsZero(t *testing.T) {
	zeros := []Value{Null, Bool(false), Int32(0), String(""), Blob(nil), List(), Struct()}
	for _, v := range zeros {
		if !v.IsZero() {
			t.Errorf("%v not zero", v)
		}
	}
	nonZeros := []Value{Bool(true), Int32(1), String("x"), List(Int32(0))}
	for _, v := range nonZeros {
		if v.IsZero() {
			t.Errorf("%v is zero", v)
		}
	}
}

func sizeCases() []Value {
	return []Value{
		Null,
		Bool(true), Bool(false),
		Int32(0), Int32(-1), Int32(math.MaxInt32), Int32(math.MinInt32),
		Int64(math.MaxInt64), Int64(math.MinInt64),
		UInt64(0), UInt64(127), UInt64(128), UInt64(math.MaxUint64),
		Float(3.5), Double(math.Pi),
		String(""), String("tom hanks"), String("日本語\x00binary"),
		Blob(nil), Blob([]byte{0, 1, 2, 255}),
		Date(18000), Date(-5),
		List(), List(String("jaws"), Int32(1975), List(Bool(true))),
		Map(MapEntry{String("b"), Int32(2)}, MapEntry{String("a"), Int32(1)}),
		Struct(
			FV(0, String("steven.spielberg")),
			FV(1, List(String("jaws"), String("et"), Int32(1975))),
			FV(1000, Map(MapEntry{String("genre"), String("thriller")})),
		),
	}
}

func TestMarshalSizeMatchesMarshal(t *testing.T) {
	for _, v := range sizeCases() {
		if got, want := MarshalSize(v), len(Marshal(v)); got != want {
			t.Errorf("MarshalSize(%v) = %d, len(Marshal) = %d", v, got, want)
		}
	}
}

func TestAppendMarshalMatchesMarshal(t *testing.T) {
	b := []byte("prefix")
	for _, v := range sizeCases() {
		b = AppendMarshal(b, v)
	}
	want := []byte("prefix")
	for _, v := range sizeCases() {
		want = append(want, Marshal(v)...)
	}
	if !bytes.Equal(b, want) {
		t.Errorf("AppendMarshal stream diverges from per-value Marshal")
	}
}

func TestMarshalSizeQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		return MarshalSize(v) == len(Marshal(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// unmarshalStructFieldsByDecode is UnmarshalStructFields as it was before it
// located fields in place — decode each wanted field, then check it — kept
// as the oracle for the locate walk's checks and errors.
func unmarshalStructFieldsByDecode(s *Schema, data []byte, ids []uint16) (Value, error) {
	v, err := Unmarshal(data)
	if err != nil && (len(data) == 0 || Kind(data[0]) != KindStruct) {
		return Null, err
	}
	if err == nil && v.Kind() != KindStruct {
		return Null, fmt.Errorf("bond: schema %q: decoded %v, want struct", s.Name, v.Kind())
	}
	n, rest, err := readUvarint(data[1:])
	if err != nil {
		return Null, err
	}
	if n > maxDecodeLen {
		return Null, errTruncated
	}
	var fields []FieldValue
	want, prev := ids, -1
	for i := uint64(0); i < n; i++ {
		var id uint64
		if id, rest, err = readUvarint(rest); err != nil {
			return Null, err
		}
		if id > math.MaxUint16 || int(id) <= prev {
			return Null, fmt.Errorf("bond: struct field ids not strictly ascending")
		}
		prev = int(id)
		var fv Value
		if fv, rest, err = decodeValue(rest); err != nil {
			return Null, err
		}
		for len(want) > 0 && uint64(want[0]) < id {
			want = want[1:]
		}
		f, known := s.FieldByID(uint16(id))
		if len(want) == 0 || uint64(want[0]) != id || !known {
			continue
		}
		if err := checkType(f.Type, fv); err != nil {
			return Null, fmt.Errorf("bond: schema %q field %q: %w", s.Name, f.Name, err)
		}
		fields = append(fields, FieldValue{ID: uint16(id), Value: fv})
	}
	if len(rest) != 0 {
		return Null, fmt.Errorf("bond: %d trailing bytes", len(rest))
	}
	v = Value{kind: KindStruct, fields: fields}
	for _, id := range ids {
		if f, ok := s.FieldByID(id); ok && f.Required {
			if fv, ok := v.Field(id); !ok || fv.IsZero() {
				return Null, fmt.Errorf("bond: schema %q: required field %q missing or null", s.Name, f.Name)
			}
		}
	}
	return v, nil
}

// TestLocateMatchesDecode: over random records — conforming, mistyped,
// with unknown fields, or not structs at all — and their truncations, bit
// flips and trailing bytes, each locate walk fails exactly where the decode
// it stands in for fails, with the same error, and what it locates decodes
// to what that decode returns.
func TestLocateMatchesDecode(t *testing.T) {
	inner := MustSchema("Inner", FReq(0, "x", TInt64), F(1, "y", TString))
	s := MustSchema("Rec",
		FReq(0, "name", TString),
		F(1, "tags", TListOf(TString)),
		F(2, "attrs", TMapOf(TString, TInt64)),
		F(3, "inner", TStructOf(inner)),
		F(4, "score", TDouble),
		F(5, "n", TInt32),
	)
	typed := map[uint16]func(r *rand.Rand) Value{
		0: func(r *rand.Rand) Value { return String([]string{"", "a", "tom"}[r.Intn(3)]) },
		2: func(r *rand.Rand) Value { return Map(MapEntry{String("k"), Int64(r.Int63n(3))}) },
		3: func(r *rand.Rand) Value { return Struct(FV(0, Int64(r.Int63n(2))), FV(1, String("z"))) },
		4: func(r *rand.Rand) Value { return Double(float64(r.Intn(3))) },
		5: func(r *rand.Rand) Value { return Int32(int32(r.Intn(3))) },
	}
	typed[1] = func(r *rand.Rand) Value {
		elems := make([]Value, r.Intn(3))
		for i := range elems {
			elems[i] = String("e")
		}
		return List(elems...)
	}
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 4000; iter++ {
		var v Value
		if r.Intn(10) == 0 {
			v = randomValue(r, 2)
		} else {
			var fs []FieldValue
			for id := uint16(0); id <= 5; id++ {
				switch r.Intn(6) {
				case 0:
				case 1:
					fs = append(fs, FV(id, randomValue(r, 1)))
				default:
					fs = append(fs, FV(id, typed[id](r)))
				}
			}
			if r.Intn(4) == 0 {
				fs = append(fs, FV(9, randomValue(r, 1)))
			}
			v = Struct(fs...)
		}
		data := Marshal(v)
		switch r.Intn(4) {
		case 1:
			data = data[:r.Intn(len(data)+1)]
		case 2:
			data[r.Intn(len(data))] ^= byte(1 + r.Intn(255))
		case 3:
			data = append(data, byte(r.Intn(256)))
		}
		var ids []uint16
		for _, id := range []uint16{0, 1, 2, 3, 4, 5, 9} {
			if r.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}

		want, wantErr := unmarshalStructFieldsByDecode(s, data, ids)
		got, err := UnmarshalStructFields(s, data, ids)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && !got.Equal(want)) {
			t.Fatalf("%x ids %v: LocateFields %v, %v; decode %v, %v", data, ids, got, err, want, wantErr)
		}

		full, fullErr := UnmarshalStruct(s, data)
		enc := make([][]byte, len(s.Fields))
		err = LocateStruct(s, data, enc)
		if fmt.Sprint(err) != fmt.Sprint(fullErr) {
			t.Fatalf("%x: LocateStruct %v, UnmarshalStruct %v", data, err, fullErr)
		}
		if err == nil {
			if got, _ := DecodeFields(s.ids, enc); !got.Equal(full) {
				t.Fatalf("%x: LocateStruct decodes to %v, UnmarshalStruct %v", data, got, full)
			}
		}

		plain, plainErr := Unmarshal(data)
		enc = make([][]byte, len(ids))
		if err := Locate(data, ids, enc); fmt.Sprint(err) != fmt.Sprint(plainErr) {
			t.Fatalf("%x: Locate %v, Unmarshal %v", data, err, plainErr)
		} else if err == nil {
			for i, id := range ids {
				fv, ok := plain.Field(id)
				if ok != (enc[i] != nil) {
					t.Fatalf("%x: field %d located %v, present %v", data, id, enc[i] != nil, ok)
				}
				if dv, _ := Unmarshal(enc[i]); ok && !dv.Equal(fv) {
					t.Fatalf("%x: field %d located as %v, decoded %v", data, id, dv, fv)
				}
			}
		}
	}
}

// TestInPlaceNavigation: MapValue, ListElem and BytesOf find what MapGet,
// Index and the decoded payloads find, and nothing in values of another
// kind.
func TestInPlaceNavigation(t *testing.T) {
	m := Marshal(Map(MapEntry{String("a"), Int32(1)}, MapEntry{Int32(7), String("b")}, MapEntry{String("c"), Null}))
	if e, ok := MapValue(m, "a"); !ok || !bytes.Equal(e, Marshal(Int32(1))) {
		t.Errorf("MapValue a = %x, %v", e, ok)
	}
	if e, ok := MapValue(m, "c"); !ok || !bytes.Equal(e, Marshal(Null)) {
		t.Errorf("MapValue c = %x, %v", e, ok)
	}
	for _, key := range []string{"b", "7", ""} {
		if _, ok := MapValue(m, key); ok {
			t.Errorf("MapValue found %q", key)
		}
	}
	l := Marshal(List(String("x"), Null, List(Int64(5))))
	for i, want := range []Value{String("x"), Null, List(Int64(5))} {
		if e, ok := ListElem(l, i); !ok || !bytes.Equal(e, Marshal(want)) {
			t.Errorf("ListElem %d = %x, %v", i, e, ok)
		}
	}
	for _, i := range []int{-1, 3} {
		if _, ok := ListElem(l, i); ok {
			t.Errorf("ListElem %d found", i)
		}
	}
	if _, ok := ListElem(m, 0); ok {
		t.Error("ListElem of a map")
	}
	if _, ok := MapValue(l, "x"); ok {
		t.Error("MapValue of a list")
	}
	for _, v := range []Value{String("tom"), String(""), Blob([]byte{0, 1}), Int64(3), Null} {
		b, k := BytesOf(Marshal(v))
		if k != v.Kind() || (k == KindString && string(b) != v.AsString()) || (k == KindBlob && !bytes.Equal(b, v.AsBlob())) {
			t.Errorf("BytesOf(%v) = %q, %v", v, b, k)
		}
	}
}
