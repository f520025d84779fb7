// Package stats maintains live, per-machine statistics about a graph's
// data distribution — vertex counts per type, distinct-value estimates and
// heavy hitters per secondary-indexed field, and edge counts with
// distinct-source estimates per edge label. The core write path feeds a
// machine's tracker incrementally on every committed mutation, so the
// numbers are always warm; the query planner pulls a cluster-wide summary
// (all machines merged) through a small TTL cache at the coordinator and
// uses it to cost candidate access paths instead of trying them in a fixed
// preference order. Everything here is approximate by design: sketches are
// bounded-memory, deletions decay them optimistically, and summaries can be
// one TTL stale — the planner only needs order-of-magnitude truth, and
// Analyze rebuilds exact numbers on demand.
package stats

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"a1/internal/bond"
)

const (
	// heavyHitterK is how many heavy hitters each field sketch tracks.
	heavyHitterK = 8
	// distinctSlots sizes the counting-style distinct estimator. Counters
	// (not bits) so deletions can decrement; estimates follow linear
	// counting on the occupied-slot fraction.
	distinctSlots = 2048
)

// keyOf reduces a field value to the sketch key: its order-preserving
// index encoding, the same identity the secondary index uses.
func keyOf(v bond.Value) string { return string(bond.OrderedEncode(nil, v)) }

func hashKey(k string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(k))
	return h.Sum64()
}

// hashAddr spreads a vertex address over the sketch's slot space. Raw
// addresses are allocator-aligned (multiples of the slot granularity), so
// without hashing only a sliver of the slots would ever be reachable and
// distinct-source estimates would saturate early.
func hashAddr(a uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], a)
	h := fnv.New64a()
	h.Write(b[:])
	return h.Sum64()
}

// distinct is a deletable linear-counting estimator: values hash into a
// fixed array of counters, and the estimate derives from the fraction of
// empty slots.
type distinct struct {
	slots []uint32
	used  int
}

func (d *distinct) add(h uint64) {
	if d.slots == nil {
		d.slots = make([]uint32, distinctSlots)
	}
	i := h % uint64(len(d.slots))
	if d.slots[i] == 0 {
		d.used++
	}
	d.slots[i]++
}

func (d *distinct) remove(h uint64) {
	if d.slots == nil {
		return
	}
	i := h % uint64(len(d.slots))
	if d.slots[i] == 0 {
		return
	}
	d.slots[i]--
	if d.slots[i] == 0 {
		d.used--
	}
}

// mergeInto adds this estimator's counters into dst slot-wise, which is
// exact for the union stream (sums commute with hashing).
func (d *distinct) mergeInto(dst *distinct) {
	if d.slots == nil {
		return
	}
	if dst.slots == nil {
		dst.slots = make([]uint32, distinctSlots)
	}
	for i, c := range d.slots {
		if c == 0 {
			continue
		}
		if dst.slots[i] == 0 {
			dst.used++
		}
		dst.slots[i] += c
	}
}

// estimate is the linear-counting cardinality: -m·ln(empty/m). A saturated
// sketch caps at the stream size the caller knows.
func (d *distinct) estimate(capAt int64) int64 {
	if d.slots == nil || d.used == 0 {
		return 0
	}
	m := float64(len(d.slots))
	empty := float64(len(d.slots) - d.used)
	var est int64
	if empty < 1 {
		est = capAt
	} else {
		est = int64(-m*math.Log(empty/m) + 0.5)
	}
	if capAt >= 0 && est > capAt {
		est = capAt
	}
	if est < 1 && d.used > 0 {
		est = 1
	}
	return est
}

// heavy is a space-saving heavy-hitter sketch with optimistic deletion:
// at most cap tracked values; an untracked arrival evicts the current
// minimum and inherits its count (the classical over-estimate bound).
type heavy struct {
	cap int
	m   map[string]*hhEntry
}

type hhEntry struct {
	val   bond.Value
	count int64
}

func newHeavy(cap int) *heavy { return &heavy{cap: cap, m: make(map[string]*hhEntry)} }

func (h *heavy) add(key string, v bond.Value) {
	if e, ok := h.m[key]; ok {
		e.count++
		return
	}
	if len(h.m) < h.cap {
		h.m[key] = &hhEntry{val: v, count: 1}
		return
	}
	// Ties evict the smallest key, so the sketch does not depend on map
	// iteration order and a rebuild from the same data is repeatable.
	var minKey string
	var min *hhEntry
	for k, e := range h.m {
		if min == nil || e.count < min.count || e.count == min.count && k < minKey {
			minKey, min = k, e
		}
	}
	delete(h.m, minKey)
	h.m[key] = &hhEntry{val: v, count: min.count + 1}
}

func (h *heavy) remove(key string) {
	if e, ok := h.m[key]; ok {
		e.count--
		if e.count <= 0 {
			delete(h.m, key)
		}
	}
}

// fieldStats is one secondary-indexed field's sketch set on one machine.
type fieldStats struct {
	count int64 // non-null values stored (≈ index entries)
	hh    *heavy
	dv    *distinct
}

func newFieldStats() *fieldStats {
	return &fieldStats{hh: newHeavy(heavyHitterK), dv: &distinct{}}
}

func (fs *fieldStats) add(v bond.Value) {
	k := keyOf(v)
	fs.count++
	fs.hh.add(k, v)
	fs.dv.add(hashKey(k))
}

func (fs *fieldStats) remove(v bond.Value) {
	k := keyOf(v)
	if fs.count > 0 {
		fs.count--
	}
	fs.hh.remove(k)
	fs.dv.remove(hashKey(k))
}

// typeStats is one vertex type's statistics on one machine.
type typeStats struct {
	count  int64
	fields map[string]*fieldStats
}

// edgeStats is one edge label's statistics on one machine: out half-edges
// hosted here and a distinct-source estimator for mean out-degree.
type edgeStats struct {
	count int64
	srcs  *distinct
}

// localGraph is one graph's statistics on one machine.
type localGraph struct {
	types map[string]*typeStats
	edges map[string]*edgeStats
}

// Local is one machine's statistics store, fed by the core write path.
type Local struct {
	mu     sync.Mutex
	graphs map[string]*localGraph
}

func newLocal() *Local { return &Local{graphs: make(map[string]*localGraph)} }

func (l *Local) graph(g string) *localGraph {
	lg, ok := l.graphs[g]
	if !ok {
		lg = &localGraph{types: make(map[string]*typeStats), edges: make(map[string]*edgeStats)}
		l.graphs[g] = lg
	}
	return lg
}

func (lg *localGraph) typ(t string) *typeStats {
	ts, ok := lg.types[t]
	if !ok {
		ts = &typeStats{fields: make(map[string]*fieldStats)}
		lg.types[t] = ts
	}
	return ts
}

func (lg *localGraph) edge(label string) *edgeStats {
	es, ok := lg.edges[label]
	if !ok {
		es = &edgeStats{srcs: &distinct{}}
		lg.edges[label] = es
	}
	return es
}

// VertexAdded records a committed vertex insert of the given type.
func (l *Local) VertexAdded(graph, typ string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.graph(graph).typ(typ).count++
}

// VertexRemoved records a committed vertex delete.
func (l *Local) VertexRemoved(graph, typ string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := l.graph(graph).typ(typ)
	if ts.count > 0 {
		ts.count--
	}
}

// FieldValueAdded records a non-null value stored under a secondary-indexed
// field (vertex insert, or update that sets the field).
func (l *Local) FieldValueAdded(graph, typ, field string, v bond.Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := l.graph(graph).typ(typ)
	fs, ok := ts.fields[field]
	if !ok {
		fs = newFieldStats()
		ts.fields[field] = fs
	}
	fs.add(v)
}

// FieldValueRemoved records a value leaving a secondary-indexed field.
func (l *Local) FieldValueRemoved(graph, typ, field string, v bond.Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if fs, ok := l.graph(graph).typ(typ).fields[field]; ok {
		fs.remove(v)
	}
}

// EdgeAdded records a committed edge insert under a label; src is the
// source vertex's stable address (distinct-source estimation).
func (l *Local) EdgeAdded(graph, label string, src uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	es := l.graph(graph).edge(label)
	es.count++
	es.srcs.add(hashAddr(src))
}

// EdgeRemoved records a committed edge delete.
func (l *Local) EdgeRemoved(graph, label string, src uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	es := l.graph(graph).edge(label)
	if es.count > 0 {
		es.count--
	}
	es.srcs.remove(hashAddr(src))
}

// ResetGraph drops a graph's statistics on this machine (Analyze rebuild).
func (l *Local) ResetGraph(graph string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.graphs, graph)
}

// HeavyHitter is one frequently-stored field value and its estimated row
// count.
type HeavyHitter struct {
	Value bond.Value
	Count int64
}

// FieldSummary is a secondary-indexed field's cluster-wide statistics.
type FieldSummary struct {
	// Count is the number of non-null values stored (≈ index entries).
	Count int64
	// Distinct is the estimated distinct-value count.
	Distinct int64
	// TopK lists the heaviest values, descending by estimated count.
	TopK []HeavyHitter

	topk map[string]int64
}

// EqEstimate estimates how many rows store exactly v: a tracked heavy
// hitter answers from its sketch count, anything else from the residual
// mass spread uniformly over the residual distinct values.
func (fs *FieldSummary) EqEstimate(v bond.Value) float64 {
	if n, ok := fs.topk[keyOf(v)]; ok {
		return float64(n)
	}
	rest := fs.Count
	for _, hh := range fs.TopK {
		rest -= hh.Count
	}
	restDistinct := fs.Distinct - int64(len(fs.TopK))
	if restDistinct < 1 {
		restDistinct = 1
	}
	if rest < 0 {
		rest = 0
	}
	return float64(rest) / float64(restDistinct)
}

// TypeSummary is one vertex type's cluster-wide statistics.
type TypeSummary struct {
	Count  int64
	Fields map[string]*FieldSummary
}

// EdgeSummary is one edge label's cluster-wide statistics.
type EdgeSummary struct {
	// Count is the number of edges carrying the label.
	Count int64
	// Sources is the estimated number of distinct source vertices.
	Sources int64
}

// MeanOutDegree is the label's average fan-out per source vertex that has
// at least one such edge.
func (es *EdgeSummary) MeanOutDegree() float64 {
	if es.Sources < 1 {
		if es.Count > 0 {
			return float64(es.Count)
		}
		return 0
	}
	return float64(es.Count) / float64(es.Sources)
}

// GraphSummary is a graph's statistics merged across every machine — the
// view the planner costs candidates against.
type GraphSummary struct {
	Types map[string]*TypeSummary
	Edges map[string]*EdgeSummary
	// AsOf is the fabric time the summary was aggregated at (it may be up
	// to one TTL stale when served from the coordinator cache).
	AsOf time.Duration
}

// TypeCount returns a vertex type's cluster-wide cardinality.
func (s *GraphSummary) TypeCount(typ string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	ts, ok := s.Types[typ]
	if !ok {
		return 0, false
	}
	return ts.Count, true
}

// FieldStats returns a type's field summary when the field has recorded
// values.
func (s *GraphSummary) FieldStats(typ, field string) (*FieldSummary, bool) {
	if s == nil {
		return nil, false
	}
	ts, ok := s.Types[typ]
	if !ok {
		return nil, false
	}
	fs, ok := ts.Fields[field]
	return fs, ok
}

// MeanOutDegree returns an edge label's average fan-out.
func (s *GraphSummary) MeanOutDegree(label string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	es, ok := s.Edges[label]
	if !ok || es.Count == 0 {
		return 0, false
	}
	return es.MeanOutDegree(), true
}

type cachedSummary struct {
	s       *GraphSummary
	expires time.Duration
}

type summaryCache struct {
	mu sync.Mutex
	m  map[string]*cachedSummary
}

// Tracker is the cluster-wide statistics subsystem: one Local per machine
// plus per-machine TTL caches of aggregated summaries (each coordinator
// caches its own view, mirroring the catalog proxy caches).
type Tracker struct {
	ttl    time.Duration
	locals []*Local
	caches []*summaryCache
}

// NewTracker builds a tracker for an n-machine cluster.
func NewTracker(n int, ttl time.Duration) *Tracker {
	t := &Tracker{ttl: ttl}
	t.locals = make([]*Local, n)
	t.caches = make([]*summaryCache, n)
	for i := range t.locals {
		t.locals[i] = newLocal()
		t.caches[i] = &summaryCache{m: make(map[string]*cachedSummary)}
	}
	return t
}

// Local returns machine m's statistics store (the write path's sink).
func (t *Tracker) Local(m int) *Local { return t.locals[m] }

// Invalidate drops every machine's cached summary for a graph so the next
// Summary call re-aggregates (Analyze, tests).
func (t *Tracker) Invalidate(graph string) {
	for _, c := range t.caches {
		c.mu.Lock()
		delete(c.m, graph)
		c.mu.Unlock()
	}
}

// ResetGraph drops a graph's statistics on every machine (Analyze rebuild).
func (t *Tracker) ResetGraph(graph string) {
	for _, l := range t.locals {
		l.ResetGraph(graph)
	}
	t.Invalidate(graph)
}

// Summary returns the cluster-wide summary for a graph as seen by machine
// m at time now, re-aggregating across machines when m's cached view has
// expired.
func (t *Tracker) Summary(m int, now time.Duration, graph string) *GraphSummary {
	c := t.caches[m]
	c.mu.Lock()
	if e, ok := c.m[graph]; ok && now < e.expires {
		s := e.s
		c.mu.Unlock()
		return s
	}
	c.mu.Unlock()
	s := t.aggregate(now, graph)
	c.mu.Lock()
	c.m[graph] = &cachedSummary{s: s, expires: now + t.ttl}
	c.mu.Unlock()
	return s
}

// aggregate merges every machine's local statistics into one summary.
func (t *Tracker) aggregate(now time.Duration, graph string) *GraphSummary {
	all := &localGraph{types: make(map[string]*typeStats), edges: make(map[string]*edgeStats)}
	for _, l := range t.locals {
		l.mu.Lock()
		if lg, ok := l.graphs[graph]; ok {
			all.merge(lg)
		}
		l.mu.Unlock()
	}
	out := &GraphSummary{
		Types: make(map[string]*TypeSummary, len(all.types)),
		Edges: make(map[string]*EdgeSummary, len(all.edges)),
		AsOf:  now,
	}
	for tn, tm := range all.types {
		ts := &TypeSummary{Count: tm.count, Fields: make(map[string]*FieldSummary, len(tm.fields))}
		for fn, fm := range tm.fields {
			fs := &FieldSummary{
				Count:    fm.count,
				Distinct: fm.dv.estimate(fm.count),
				topk:     make(map[string]int64),
			}
			hh := fm.hh.m
			keys := make([]string, 0, len(hh))
			for k := range hh {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				a, b := hh[keys[i]], hh[keys[j]]
				if a.count != b.count {
					return a.count > b.count
				}
				return keys[i] < keys[j]
			})
			if len(keys) > heavyHitterK {
				keys = keys[:heavyHitterK]
			}
			for _, k := range keys {
				e := hh[k]
				fs.TopK = append(fs.TopK, HeavyHitter{Value: e.val, Count: e.count})
				fs.topk[k] = e.count
			}
			ts.Fields[fn] = fs
		}
		out.Types[tn] = ts
	}
	for en, em := range all.edges {
		out.Edges[en] = &EdgeSummary{
			Count:   em.count,
			Sources: em.srcs.estimate(em.count),
		}
	}
	return out
}

// merge folds one machine's statistics into lg: counts and distinct
// counters add, and heavy-hitter counts add per value in lg's map without
// its cap, so that the summary's top-heavyHitterK cut sees every value
// some machine tracks.
func (lg *localGraph) merge(src *localGraph) {
	for tn, ts := range src.types {
		dt := lg.typ(tn)
		dt.count += ts.count
		for fn, fs := range ts.fields {
			df, ok := dt.fields[fn]
			if !ok {
				df = newFieldStats()
				dt.fields[fn] = df
			}
			df.count += fs.count
			fs.dv.mergeInto(df.dv)
			for k, e := range fs.hh.m {
				if d, ok := df.hh.m[k]; ok {
					d.count += e.count
				} else {
					df.hh.m[k] = &hhEntry{val: e.val, count: e.count}
				}
			}
		}
	}
	for en, es := range src.edges {
		de := lg.edge(en)
		de.count += es.count
		es.srcs.mergeInto(de.srcs)
	}
}
