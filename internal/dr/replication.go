// Package dr implements A1's disaster recovery (paper §4): every update
// transaction also inserts a log entry into a replication log stored in
// FaRM; as soon as the transaction commits, the entry is flushed to the
// durable ObjectStore synchronously with the customer request, falling back
// to a sweep (FlushPending) that drains the log in FIFO order. Entries
// carry the transaction's commit timestamp, so ObjectStore applies them in
// transaction order (idempotently) regardless of delays or replays.
// Recovery rebuilds a fresh A1 cluster from ObjectStore in either of the
// paper's two modes: best-effort (most recent data, internally consistent)
// or consistent (transactionally consistent snapshot at the durability
// watermark tR).
package dr

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/objectstore"
)

// Mode selects the recovery guarantee.
type Mode int

const (
	// BestEffort recovers every durably replicated row: at least as fresh
	// as Consistent, internally consistent (no dangling edges), but not
	// transactionally consistent.
	BestEffort Mode = iota
	// Consistent recovers the newest transactionally consistent snapshot
	// at or below the durability watermark tR.
	Consistent
)

func (m Mode) String() string {
	if m == Consistent {
		return "consistent"
	}
	return "best-effort"
}

// entry kinds; each delete kind follows its put kind.
const (
	kVertexPut uint64 = iota
	kVertexDel
	kEdgePut
	kEdgeDel
)

// Entry is one replication-log record.
type Entry struct {
	Seq    uint64
	Kind   uint64
	Tenant string
	Graph  string
	VType  string // vertex type, or edge source type
	PK     bond.Value
	Data   bond.Value
	EType  string
	DstTyp string
	DstPK  bond.Value
	Ts     uint64 // FaRM commit timestamp
}

// Replicator implements core.UpdateLogger over an ObjectStore.
type Replicator struct {
	farm  *farm.Farm
	store *objectstore.Store

	logIdx  *farm.BTree // seq(8BE) -> entry object Ptr
	nextSeq atomic.Uint64

	mu      sync.Mutex
	enabled map[string]*replicated // "tenant/graph" -> replicate

	// Metrics.
	SyncFlushes  atomic.Int64
	AsyncFlushes atomic.Int64
	SyncFailures atomic.Int64
}

// replicated is an enabled graph: its handle, and the vertex and edge
// types its last schema snapshot wrote.
type replicated struct {
	g      *core.Graph
	vtypes map[string]bool
	etypes map[string]bool
}

// NewReplicator creates the replication log (in FaRM) and binds it to the
// durable store. Install it with core.Store.SetLogger and enable graphs
// with EnableGraph.
func NewReplicator(c *fabric.Ctx, f *farm.Farm, store *objectstore.Store) (*Replicator, error) {
	r := &Replicator{farm: f, store: store, enabled: make(map[string]*replicated)}
	err := farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		bt, err := farm.CreateBTree(tx, farm.NilAddr)
		if err != nil {
			return err
		}
		r.logIdx = bt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

func gkey(tenant, graph string) string { return tenant + "/" + graph }

func vertexTableName(tenant, graph string) string { return gkey(tenant, graph) + "/vertices" }
func edgeTableName(tenant, graph string) string   { return gkey(tenant, graph) + "/edges" }
func metaTableName(tenant, graph string) string   { return gkey(tenant, graph) + "/meta" }

// EnableGraph turns on replication for a graph, creating its vertex and
// edge tables (paper: two tables per graph) and snapshotting its schema so
// recovery can recreate types.
func (r *Replicator) EnableGraph(c *fabric.Ctx, g *core.Graph) error {
	r.store.CreateTable(vertexTableName(g.Tenant(), g.Name()))
	r.store.CreateTable(edgeTableName(g.Tenant(), g.Name()))
	return r.snapshotSchema(c, g)
}

func (r *Replicator) graphEnabled(tenant, graph string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.enabled[gkey(tenant, graph)] != nil
}

// unsnapshotted returns e's graph when e names a type the graph's last
// schema snapshot lacks (one created after EnableGraph), else nil.
func (r *Replicator) unsnapshotted(e *Entry) *core.Graph {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg := r.enabled[gkey(e.Tenant, e.Graph)]
	if rg.vtypes[e.VType] && (e.EType == "" || rg.etypes[e.EType] && rg.vtypes[e.DstTyp]) {
		return nil
	}
	return rg.g
}

// snapshotSchema persists type definitions so recovery can recreate the
// control plane before replaying data rows, and enables g's replication.
func (r *Replicator) snapshotSchema(c *fabric.Ctx, g *core.Graph) error {
	meta := r.store.CreateTable(metaTableName(g.Tenant(), g.Name()))
	ts := r.farm.Clock().Current()
	rg := &replicated{g: g, vtypes: make(map[string]bool), etypes: make(map[string]bool)}
	vts, err := g.VertexTypeNames(c)
	if err != nil {
		return err
	}
	for _, name := range vts {
		schema, err := g.VertexTypeSchema(c, name)
		if err != nil {
			return err
		}
		pkField, secFields, err := g.VertexTypeIndexInfo(c, name)
		if err != nil {
			return err
		}
		secVals := make([]bond.Value, 0, len(secFields))
		for _, sf := range secFields {
			secVals = append(secVals, bond.String(sf))
		}
		val := bond.Marshal(bond.Struct(
			bond.FV(0, bond.Blob(bond.EncodeSchema(schema))),
			bond.FV(1, bond.String(pkField)),
			bond.FV(2, bond.List(secVals...)),
		))
		if err := meta.UpsertIfNewer([]byte("vt/"+name), val, ts); err != nil {
			return err
		}
		rg.vtypes[name] = true
	}
	ets, err := g.EdgeTypeNames(c)
	if err != nil {
		return err
	}
	for _, name := range ets {
		schema, err := g.EdgeTypeSchema(c, name)
		if err != nil {
			return err
		}
		var blob []byte
		if schema != nil {
			blob = bond.EncodeSchema(schema)
		}
		val := bond.Marshal(bond.Struct(bond.FV(0, bond.Blob(blob))))
		if err := meta.UpsertIfNewer([]byte("et/"+name), val, ts); err != nil {
			return err
		}
		rg.etypes[name] = true
	}
	r.mu.Lock()
	r.enabled[gkey(g.Tenant(), g.Name())] = rg
	r.mu.Unlock()
	return nil
}

// encodeEntry serializes a log entry (without Seq, which lives in the key).
func encodeEntry(e *Entry) []byte {
	fs := []bond.FieldValue{
		bond.FV(0, bond.UInt64(e.Kind)),
		bond.FV(1, bond.String(e.Tenant)),
		bond.FV(2, bond.String(e.Graph)),
		bond.FV(3, bond.String(e.VType)),
		bond.FV(4, bond.Blob(bond.Marshal(e.PK))),
	}
	if !e.Data.IsNull() {
		fs = append(fs, bond.FV(5, bond.Blob(bond.Marshal(e.Data))))
	}
	if e.EType != "" {
		fs = append(fs, bond.FV(6, bond.String(e.EType)))
		fs = append(fs, bond.FV(7, bond.String(e.DstTyp)))
		fs = append(fs, bond.FV(8, bond.Blob(bond.Marshal(e.DstPK))))
	}
	fs = append(fs, bond.FV(9, bond.UInt64(e.Ts)))
	return bond.Marshal(bond.Struct(fs...))
}

func decodeEntry(raw []byte) (*Entry, error) {
	v, err := bond.Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("dr: corrupt log entry: %w", err)
	}
	get := func(id uint16) bond.Value { f, _ := v.Field(id); return f }
	e := &Entry{
		Kind:   get(0).AsUint(),
		Tenant: get(1).AsString(),
		Graph:  get(2).AsString(),
		VType:  get(3).AsString(),
		EType:  get(6).AsString(),
		DstTyp: get(7).AsString(),
		Ts:     get(9).AsUint(),
	}
	if pk := get(4).AsBlob(); len(pk) > 0 {
		if e.PK, err = bond.Unmarshal(pk); err != nil {
			return nil, err
		}
	}
	if data := get(5).AsBlob(); len(data) > 0 {
		if e.Data, err = bond.Unmarshal(data); err != nil {
			return nil, err
		}
	}
	if dpk := get(8).AsBlob(); len(dpk) > 0 {
		if e.DstPK, err = bond.Unmarshal(dpk); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// appendEntry writes a log entry inside tx: an entry object whose timestamp
// field is patched with the real commit timestamp during commit, plus a log
// index row; after the transaction commits the entry is flushed to
// ObjectStore synchronously with the request.
func (r *Replicator) appendEntry(tx *farm.Tx, e *Entry) error {
	if !r.graphEnabled(e.Tenant, e.Graph) {
		return nil
	}
	e.Seq = r.nextSeq.Add(1)
	raw := encodeEntry(e)
	buf, err := tx.Alloc(uint32(len(raw)+16), farm.NilAddr)
	if err != nil {
		return err
	}
	if err := buf.Resize(uint32(len(raw))); err != nil {
		return err
	}
	copy(buf.Data(), raw)
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], e.Seq)
	if err := r.logIdx.Put(tx, key[:], farm.AppendPtr(nil, buf.Ptr())); err != nil {
		return err
	}
	tx.OnCommitTimestamp(func(ts uint64) {
		e.Ts = ts
		patched := encodeEntry(e)
		if err := buf.Resize(uint32(len(patched))); err == nil {
			copy(buf.Data(), patched)
		}
	})
	tx.OnCommitted(func() {
		// Synchronous flush attempt; failure leaves the entry for the
		// sweeper (paper §4).
		c := tx.Ctx()
		if err := r.flushOne(c, e.Seq, e); err != nil {
			r.SyncFailures.Add(1)
			return
		}
		r.SyncFlushes.Add(1)
		r.updateWatermark(c)
	})
	return nil
}

// LogChange implements core.UpdateLogger: it appends the change's entry
// inside the data-plane transaction that made it.
func (r *Replicator) LogChange(tx *farm.Tx, ch *core.Change) error {
	kind := kVertexPut
	if ch.EType != "" {
		kind = kEdgePut
	}
	if ch.Deleted {
		kind++ // kVertexDel, kEdgeDel
	}
	return r.appendEntry(tx, &Entry{
		Kind: kind, Tenant: ch.Tenant, Graph: ch.Graph,
		VType: ch.VType, PK: ch.PK, Data: ch.Data,
		EType: ch.EType, DstTyp: ch.DstType, DstPK: ch.DstPK,
	})
}

// Row key encodings in ObjectStore tables.

func vertexRowKey(vtype string, pk bond.Value) []byte {
	k := bond.OrderedEncode(nil, bond.String(vtype))
	return bond.OrderedEncode(k, pk)
}

func edgeRowKey(e *Entry) []byte {
	k := bond.OrderedEncode(nil, bond.String(e.VType))
	k = bond.OrderedEncode(k, e.PK)
	k = bond.OrderedEncode(k, bond.String(e.EType))
	k = bond.OrderedEncode(k, bond.String(e.DstTyp))
	return bond.OrderedEncode(k, e.DstPK)
}

// vertexRowValue packs what recovery needs to recreate the vertex.
func vertexRowValue(e *Entry) []byte {
	return bond.Marshal(bond.Struct(
		bond.FV(0, bond.String(e.VType)),
		bond.FV(1, bond.Blob(bond.Marshal(e.PK))),
		bond.FV(2, bond.Blob(bond.Marshal(e.Data))),
	))
}

func edgeRowValue(e *Entry) []byte {
	fs := []bond.FieldValue{
		bond.FV(0, bond.String(e.VType)),
		bond.FV(1, bond.Blob(bond.Marshal(e.PK))),
		bond.FV(2, bond.String(e.EType)),
		bond.FV(3, bond.String(e.DstTyp)),
		bond.FV(4, bond.Blob(bond.Marshal(e.DstPK))),
	}
	if !e.Data.IsNull() {
		fs = append(fs, bond.FV(5, bond.Blob(bond.Marshal(e.Data))))
	}
	return bond.Marshal(bond.Struct(fs...))
}

// flushOne applies a single log entry to ObjectStore and deletes it from
// the log, re-snapshotting the graph's schema first when the entry names a
// type the snapshot lacks. Application is idempotent (timestamp-
// conditional), so replays after failures are harmless.
func (r *Replicator) flushOne(c *fabric.Ctx, seq uint64, e *Entry) error {
	if g := r.unsnapshotted(e); g != nil {
		if err := r.snapshotSchema(c, g); err != nil {
			return err
		}
	}
	if err := r.applyToStore(e); err != nil {
		return err
	}
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], seq)
	return farm.RunTransaction(c, r.farm, func(tx *farm.Tx) error {
		v, ok, err := r.logIdx.Get(tx, key[:])
		if err != nil || !ok {
			return err
		}
		if _, err := r.logIdx.Delete(tx, key[:]); err != nil {
			return err
		}
		if p := farm.DecodePtr(v); !p.IsNil() {
			if buf, err := tx.Read(p); err == nil {
				if err := tx.Free(buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func (r *Replicator) applyToStore(e *Entry) error {
	switch e.Kind {
	case kVertexPut:
		t, err := r.store.Table(vertexTableName(e.Tenant, e.Graph))
		if err != nil {
			return err
		}
		return t.UpsertIfNewer(vertexRowKey(e.VType, e.PK), vertexRowValue(e), e.Ts)
	case kVertexDel:
		t, err := r.store.Table(vertexTableName(e.Tenant, e.Graph))
		if err != nil {
			return err
		}
		return t.DeleteIfNewer(vertexRowKey(e.VType, e.PK), e.Ts)
	case kEdgePut:
		t, err := r.store.Table(edgeTableName(e.Tenant, e.Graph))
		if err != nil {
			return err
		}
		return t.UpsertIfNewer(edgeRowKey(e), edgeRowValue(e), e.Ts)
	case kEdgeDel:
		t, err := r.store.Table(edgeTableName(e.Tenant, e.Graph))
		if err != nil {
			return err
		}
		return t.DeleteIfNewer(edgeRowKey(e), e.Ts)
	}
	return fmt.Errorf("dr: unknown entry kind %d", e.Kind)
}

// FlushPending drains the replication log in FIFO order (the asynchronous
// sweeper). It stops at the first store failure and returns how many
// entries it flushed, then refreshes the durability watermark.
func (r *Replicator) FlushPending(c *fabric.Ctx) (int, error) {
	flushed := 0
	for {
		seq, e, ok, err := r.oldestEntry(c)
		if err != nil || !ok {
			r.updateWatermark(c)
			return flushed, err
		}
		if err := r.flushOne(c, seq, e); err != nil {
			r.updateWatermark(c)
			return flushed, err
		}
		r.AsyncFlushes.Add(1)
		flushed++
	}
}

// oldestEntry reads the head of the log.
func (r *Replicator) oldestEntry(c *fabric.Ctx) (uint64, *Entry, bool, error) {
	tx := r.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	var seq uint64
	var raw []byte
	err := r.logIdx.Scan(tx, nil, nil, func(k, v []byte) bool {
		seq = binary.BigEndian.Uint64(k)
		raw = append([]byte(nil), v...)
		return false
	})
	if err != nil || raw == nil {
		return 0, nil, false, err
	}
	p := farm.DecodePtr(raw)
	buf, err := tx.Read(p)
	if err != nil {
		return 0, nil, false, err
	}
	e, err := decodeEntry(buf.Data())
	if err != nil {
		return 0, nil, false, err
	}
	return seq, e, true, nil
}

// updateWatermark persists tR: every transaction with a timestamp <= tR is
// fully durable in ObjectStore (paper §4). With an empty log that is "now";
// otherwise one below the oldest unreplicated entry.
func (r *Replicator) updateWatermark(c *fabric.Ctx) {
	_, e, ok, err := r.oldestEntry(c)
	var tR uint64
	if err != nil {
		return
	}
	if !ok {
		tR = r.farm.Clock().Current()
	} else if e.Ts > 0 {
		tR = e.Ts - 1
	} else {
		return
	}
	_ = r.store.PutWatermark(tR)
}

// PendingEntries returns the replication-log backlog (age monitoring,
// paper: "we closely monitor the age of entries in the replication log").
func (r *Replicator) PendingEntries(c *fabric.Ctx) (int, error) {
	tx := r.farm.CreatePinnedReadTransaction(c)
	defer tx.Abort()
	return r.logIdx.Count(tx, nil, nil)
}
