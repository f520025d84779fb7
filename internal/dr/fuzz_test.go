package dr

import (
	"testing"

	"a1/internal/bond"
)

// FuzzLogEntry holds the replication-log entry codec to two properties.
// decodeEntry never panics on arbitrary bytes: the log lives in FaRM
// memory that recovery and the sweeper read back. And an entry built from
// the input — any kind, any strings, an integer primary key, optional data
// and optional edge fields — survives encodeEntry and decodeEntry intact.
// The second property builds entries rather than re-decoding the raw
// bytes, because decodeEntry also accepts non-canonical entries (a
// destination type with no edge type) that encodeEntry never writes.
func FuzzLogEntry(f *testing.F) {
	f.Add(encodeEntry(&Entry{Kind: kVertexPut, Tenant: "t", Graph: "g", VType: "node", PK: bond.Int64(1),
		Data: bond.Struct(bond.FV(0, bond.String("v"))), Ts: 42}),
		uint8(kVertexPut), "t", "g", "node", int64(1), true, "v", "", "", int64(0), uint64(42))
	f.Add(encodeEntry(&Entry{Kind: kEdgeDel, Tenant: "t", Graph: "g", VType: "node", PK: bond.Int64(1),
		EType: "link", DstTyp: "node", DstPK: bond.Int64(2), Ts: 7}),
		uint8(kEdgeDel), "t", "g", "node", int64(1), false, "", "link", "node", int64(2), uint64(7))
	f.Fuzz(func(t *testing.T, raw []byte, kind uint8, tenant, graph, vtype string, pk int64,
		hasData bool, data string, etype, dstTyp string, dstPK int64, ts uint64) {
		_, _ = decodeEntry(raw)

		want := &Entry{Kind: uint64(kind % 4), Tenant: tenant, Graph: graph, VType: vtype, PK: bond.Int64(pk), Ts: ts}
		if hasData {
			want.Data = bond.Struct(bond.FV(0, bond.String(data)))
		}
		if etype != "" {
			want.EType, want.DstTyp, want.DstPK = etype, dstTyp, bond.Int64(dstPK)
		}
		got, err := decodeEntry(encodeEntry(want))
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", want, err)
		}
		if got.Kind != want.Kind || got.Tenant != want.Tenant || got.Graph != want.Graph ||
			got.VType != want.VType || !got.PK.Equal(want.PK) || !got.Data.Equal(want.Data) ||
			got.EType != want.EType || got.DstTyp != want.DstTyp || !got.DstPK.Equal(want.DstPK) ||
			got.Ts != want.Ts {
			t.Fatalf("decode(encode(e)) = %+v, want %+v", got, want)
		}
	})
}
