package dr

import (
	"errors"
	"fmt"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/objectstore"
)

// RecoveryStats summarizes a recovery run.
type RecoveryStats struct {
	Mode         Mode
	Watermark    uint64 // tR used (Consistent mode only)
	Vertices     int
	Edges        int
	SkippedRows  int // tombstones and rows above the snapshot
	DanglingDrop int // edges dropped because an endpoint is missing
}

// ErrNoMeta means the graph's schema snapshot is missing from ObjectStore.
var ErrNoMeta = errors.New("dr: no schema snapshot for graph")

// Recover rebuilds one graph from ObjectStore into a fresh A1 store after a
// disaster (paper §4).
//
// Consistent mode reads the durability watermark tR and materializes the
// newest version of every row at or below it: the result is exactly the
// database state at timestamp tR. Best-effort mode takes the newest version
// of every row regardless of tR — at least as up to date, but possibly a
// mix of transactions; internal consistency is restored by dropping edges
// whose endpoints did not survive.
func Recover(c *fabric.Ctx, store *objectstore.Store, target *core.Store, tenant, graph string, mode Mode) (*RecoveryStats, error) {
	stats := &RecoveryStats{Mode: mode}

	// 1. Recreate the control plane from the schema snapshot.
	meta, err := store.Table(metaTableName(tenant, graph))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoMeta, err)
	}
	if err := target.CreateTenant(c, tenant); err != nil && !errors.Is(err, core.ErrExists) {
		return nil, err
	}
	if err := target.CreateGraph(c, tenant, graph); err != nil && !errors.Is(err, core.ErrExists) {
		return nil, err
	}
	g, err := target.OpenGraph(c, tenant, graph)
	if err != nil {
		return nil, err
	}
	var metaErr error
	err = meta.Scan(func(row objectstore.Row) bool {
		key := string(row.Key)
		v, err := bond.Unmarshal(row.Value)
		if err != nil {
			metaErr = err
			return false
		}
		switch {
		case len(key) > 3 && key[:3] == "vt/":
			blob, _ := v.Field(0)
			pkField, _ := v.Field(1)
			secList, _ := v.Field(2)
			schema, err := bond.DecodeSchema(blob.AsBlob())
			if err != nil {
				metaErr = err
				return false
			}
			var secs []string
			for _, s := range secList.Elems() {
				secs = append(secs, s.AsString())
			}
			if err := g.CreateVertexType(c, key[3:], schema, pkField.AsString(), secs...); err != nil && !errors.Is(err, core.ErrExists) {
				metaErr = err
				return false
			}
		case len(key) > 3 && key[:3] == "et/":
			blob, _ := v.Field(0)
			var schema *bond.Schema
			if len(blob.AsBlob()) > 0 {
				s, err := bond.DecodeSchema(blob.AsBlob())
				if err != nil {
					metaErr = err
					return false
				}
				schema = s
			}
			if err := g.CreateEdgeType(c, key[3:], schema); err != nil && !errors.Is(err, core.ErrExists) {
				metaErr = err
				return false
			}
		}
		return true
	})
	if err == nil {
		err = metaErr
	}
	if err != nil {
		return nil, err
	}

	// 2. Pick the row visitor for the chosen mode.
	vt, err := store.Table(vertexTableName(tenant, graph))
	if err != nil {
		return nil, err
	}
	et, err := store.Table(edgeTableName(tenant, graph))
	if err != nil {
		return nil, err
	}
	scan := func(t *objectstore.Table, fn func(objectstore.Row) bool) error {
		if mode == Consistent {
			stats.Watermark = store.Watermark()
			return t.ScanAtOrBelow(stats.Watermark, fn)
		}
		return t.Scan(fn)
	}

	// 3. Vertices first (edges need endpoints).
	var loadErr error
	err = scan(vt, func(row objectstore.Row) bool {
		if row.Tombstone {
			stats.SkippedRows++
			return true
		}
		v, err := bond.Unmarshal(row.Value)
		if err != nil {
			loadErr = err
			return false
		}
		typ, _ := v.Field(0)
		dataBlob, _ := v.Field(2)
		data, err := bond.Unmarshal(dataBlob.AsBlob())
		if err != nil {
			loadErr = err
			return false
		}
		err = farm.RunTransaction(c, target.Farm(), func(tx *farm.Tx) error {
			_, err := g.CreateVertex(tx, typ.AsString(), data)
			if errors.Is(err, core.ErrExists) {
				return nil
			}
			return err
		})
		if err != nil {
			loadErr = err
			return false
		}
		stats.Vertices++
		return true
	})
	if err == nil {
		err = loadErr
	}
	if err != nil {
		return nil, err
	}

	// 4. Edges; endpoints may be missing in best-effort mode — drop those
	// edges so the database stays internally consistent (the paper's §4
	// example).
	loadErr = nil
	err = scan(et, func(row objectstore.Row) bool {
		if row.Tombstone {
			stats.SkippedRows++
			return true
		}
		v, err := bond.Unmarshal(row.Value)
		if err != nil {
			loadErr = err
			return false
		}
		get := func(id uint16) bond.Value { f, _ := v.Field(id); return f }
		srcType := get(0).AsString()
		etype := get(2).AsString()
		dstType := get(3).AsString()
		srcPK, err1 := bond.Unmarshal(get(1).AsBlob())
		dstPK, err2 := bond.Unmarshal(get(4).AsBlob())
		if err1 != nil || err2 != nil {
			loadErr = fmt.Errorf("dr: corrupt edge row: %v %v", err1, err2)
			return false
		}
		var data bond.Value
		if blob := get(5).AsBlob(); len(blob) > 0 {
			if data, err = bond.Unmarshal(blob); err != nil {
				loadErr = err
				return false
			}
		}
		err = farm.RunTransaction(c, target.Farm(), func(tx *farm.Tx) error {
			src, okS, err := g.LookupVertex(tx, srcType, srcPK)
			if err != nil {
				return err
			}
			dst, okD, err := g.LookupVertex(tx, dstType, dstPK)
			if err != nil {
				return err
			}
			if !okS || !okD {
				stats.DanglingDrop++
				return nil
			}
			err = g.CreateEdge(tx, src, etype, dst, data)
			if errors.Is(err, core.ErrExists) {
				return nil
			}
			if err == nil {
				stats.Edges++
			}
			return err
		})
		if err != nil {
			loadErr = err
			return false
		}
		return true
	})
	if err == nil {
		err = loadErr
	}
	if err != nil {
		return nil, err
	}
	return stats, nil
}
