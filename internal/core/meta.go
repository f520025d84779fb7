package core

import (
	"fmt"

	"a1/internal/bond"
	"a1/internal/farm"
)

// Metadata records stored as catalog values, serialized with Bond so that
// the catalog — like everything else — holds schematized data.

// GraphState tracks the asynchronous deletion workflow (paper §3.3).
type GraphState uint8

const (
	// GraphActive is the normal serving state.
	GraphActive GraphState = iota
	// GraphDeleting marks a graph whose resources are being torn down by
	// background tasks; the data plane rejects new operations.
	GraphDeleting
)

// tenantMeta is the catalog value for a tenant.
type tenantMeta struct {
	Name string
}

// graphMeta is the catalog value for a graph.
type graphMeta struct {
	Name       string
	State      GraphState
	NextTypeID uint32
	OutTree    farm.Ptr // global out-edge B-tree ⟨src,etype,dst⟩→data ptr
	InTree     farm.Ptr // global in-edge B-tree ⟨dst,etype,src⟩→data ptr
}

// secondaryMeta describes one secondary index of a vertex type.
type secondaryMeta struct {
	FieldID uint16
	Tree    farm.Ptr
}

// vertexTypeMeta is the catalog value for a vertex type.
type vertexTypeMeta struct {
	ID        uint32
	Name      string
	Schema    *bond.Schema
	PKField   uint16
	Primary   farm.Ptr // primary index B-tree descriptor
	Secondary []secondaryMeta
}

// edgeTypeMeta is the catalog value for an edge type.
type edgeTypeMeta struct {
	ID     uint32
	Name   string
	Schema *bond.Schema // nil when edges of this type carry no data
}

func (m *tenantMeta) encode() []byte {
	return bond.Marshal(bond.Struct(bond.FV(0, bond.String(m.Name))))
}

func (m *graphMeta) encode() []byte {
	return bond.Marshal(bond.Struct(
		bond.FV(0, bond.String(m.Name)),
		bond.FV(1, bond.UInt64(uint64(m.State))),
		bond.FV(2, bond.UInt64(uint64(m.NextTypeID))),
		bond.FV(3, bond.Blob(farm.AppendPtr(nil, m.OutTree))),
		bond.FV(4, bond.Blob(farm.AppendPtr(nil, m.InTree))),
	))
}

func decodeGraphMeta(raw []byte) (*graphMeta, error) {
	v, err := bond.Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: graph: %v", ErrCatalogCorrupt, err)
	}
	name, _ := v.Field(0)
	state, _ := v.Field(1)
	next, _ := v.Field(2)
	out, _ := v.Field(3)
	in, _ := v.Field(4)
	return &graphMeta{
		Name:       name.AsString(),
		State:      GraphState(state.AsUint()),
		NextTypeID: uint32(next.AsUint()),
		OutTree:    farm.DecodePtr(out.AsBlob()),
		InTree:     farm.DecodePtr(in.AsBlob()),
	}, nil
}

func (m *vertexTypeMeta) encode() []byte {
	sec := make([]bond.Value, 0, len(m.Secondary))
	for _, si := range m.Secondary {
		sec = append(sec, bond.Struct(
			bond.FV(0, bond.UInt64(uint64(si.FieldID))),
			bond.FV(1, bond.Blob(farm.AppendPtr(nil, si.Tree))),
		))
	}
	return bond.Marshal(bond.Struct(
		bond.FV(0, bond.UInt64(uint64(m.ID))),
		bond.FV(1, bond.String(m.Name)),
		bond.FV(2, bond.Blob(bond.EncodeSchema(m.Schema))),
		bond.FV(3, bond.UInt64(uint64(m.PKField))),
		bond.FV(4, bond.Blob(farm.AppendPtr(nil, m.Primary))),
		bond.FV(5, bond.List(sec...)),
	))
}

func decodeVertexTypeMeta(raw []byte) (*vertexTypeMeta, error) {
	v, err := bond.Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: vertex type: %v", ErrCatalogCorrupt, err)
	}
	id, _ := v.Field(0)
	name, _ := v.Field(1)
	schemaBlob, _ := v.Field(2)
	pk, _ := v.Field(3)
	primary, _ := v.Field(4)
	secList, _ := v.Field(5)
	schema, err := bond.DecodeSchema(schemaBlob.AsBlob())
	if err != nil {
		return nil, fmt.Errorf("%w: vertex type schema: %v", ErrCatalogCorrupt, err)
	}
	m := &vertexTypeMeta{
		ID:      uint32(id.AsUint()),
		Name:    name.AsString(),
		Schema:  schema,
		PKField: uint16(pk.AsUint()),
		Primary: farm.DecodePtr(primary.AsBlob()),
	}
	for _, sv := range secList.Elems() {
		f, _ := sv.Field(0)
		tree, _ := sv.Field(1)
		m.Secondary = append(m.Secondary, secondaryMeta{
			FieldID: uint16(f.AsUint()),
			Tree:    farm.DecodePtr(tree.AsBlob()),
		})
	}
	return m, nil
}

func (m *edgeTypeMeta) encode() []byte {
	fs := []bond.FieldValue{
		bond.FV(0, bond.UInt64(uint64(m.ID))),
		bond.FV(1, bond.String(m.Name)),
	}
	if m.Schema != nil {
		fs = append(fs, bond.FV(2, bond.Blob(bond.EncodeSchema(m.Schema))))
	}
	return bond.Marshal(bond.Struct(fs...))
}

func decodeEdgeTypeMeta(raw []byte) (*edgeTypeMeta, error) {
	v, err := bond.Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: edge type: %v", ErrCatalogCorrupt, err)
	}
	id, _ := v.Field(0)
	name, _ := v.Field(1)
	m := &edgeTypeMeta{ID: uint32(id.AsUint()), Name: name.AsString()}
	if blob, ok := v.Field(2); ok {
		schema, err := bond.DecodeSchema(blob.AsBlob())
		if err != nil {
			return nil, fmt.Errorf("%w: edge type schema: %v", ErrCatalogCorrupt, err)
		}
		m.Schema = schema
	}
	return m, nil
}
