package workload

import (
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// payloads returns the stored encoding of every vertex of a type.
func payloads(t *testing.T, g *core.Graph, c *fabric.Ctx, f *farm.Farm, typeName string) [][]byte {
	t.Helper()
	tx := f.CreateReadTransaction(c)
	var ptrs []core.VertexPtr
	if err := g.ScanVerticesByType(tx, typeName, func(_ bond.Value, vp core.VertexPtr) bool {
		ptrs = append(ptrs, vp)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	vs, err := g.ReadVertices(tx, ptrs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(vs))
	for i, v := range vs {
		out[i] = bond.Marshal(v.Data) // the encoding is canonical: these are the stored bytes
	}
	return out
}

// checkProjection holds bond.UnmarshalStructFields against its definition
// on real payloads: for every subset of the schema's field ids (plus one
// id the schema lacks) the projected decode equals the full decode
// restricted to that subset, and every truncation of the payload fails
// both decoders.
func checkProjection(t *testing.T, schema *bond.Schema, payloads [][]byte) {
	t.Helper()
	if len(payloads) == 0 {
		t.Fatal("no payloads")
	}
	var ids []uint16 // ascending, like schema.Fields
	for _, f := range schema.Fields {
		ids = append(ids, f.ID)
	}
	ids = append(ids, 999) // never in the schema: must be ignored
	for pi, data := range payloads {
		full, err := bond.UnmarshalStruct(schema, data)
		if err != nil {
			t.Fatalf("payload %d: full decode: %v", pi, err)
		}
		for mask := 0; mask < 1<<len(ids); mask++ {
			var want []uint16
			var kept []bond.FieldValue
			for i, id := range ids {
				if mask&(1<<i) == 0 {
					continue
				}
				want = append(want, id)
				if fv, ok := full.Field(id); ok {
					kept = append(kept, bond.FV(id, fv))
				}
			}
			got, err := bond.UnmarshalStructFields(schema, data, want)
			if err != nil {
				t.Fatalf("payload %d ids %v: %v", pi, want, err)
			}
			if !got.Equal(bond.Struct(kept...)) {
				t.Fatalf("payload %d ids %v: projected %v, want %v", pi, want, got, bond.Struct(kept...))
			}
		}
		// Truncations: a prefix of a valid encoding is never valid, and the
		// projection must notice wherever the cut falls — inside a field
		// it decodes or one it skips.
		for cut := 0; cut < len(data); cut++ {
			_, fullErr := bond.UnmarshalStruct(schema, data[:cut])
			for _, want := range [][]uint16{nil, ids[:1], ids[len(ids)-2:], ids} {
				_, projErr := bond.UnmarshalStructFields(schema, data[:cut], want)
				if fullErr == nil || projErr == nil {
					t.Fatalf("payload %d cut at %d/%d ids %v: full err %v, projected err %v",
						pi, cut, len(data), want, fullErr, projErr)
				}
			}
		}
	}
}

func TestProjectedDecodeFilmKG(t *testing.T) {
	_, g, c, f := loadKG(t, TestParams())
	checkProjection(t, EntitySchema, payloads(t, g, c, f, "entity"))
}

func TestProjectedDecodeZipf(t *testing.T) {
	fab := fabric.New(fabric.DefaultConfig(8, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant(c, "t"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateGraph(c, "t", "z"); err != nil {
		t.Fatal(err)
	}
	g, err := s.OpenGraph(c, "t", "z")
	if err != nil {
		t.Fatal(err)
	}
	if err := NewZipfGraph(300, 600, 1).Load(c, g); err != nil {
		t.Fatal(err)
	}
	checkProjection(t, ZipfSchema, payloads(t, g, c, f, "node"))
}
