// Package graph implements the attributed-graph view layer of the GraQL
// data model: strongly typed vertex and edge types defined as views over
// tabular data (paper Eq. 1 and Eq. 2), and the bidirectional CSR edge
// indexes the GEMS backend traverses (paper §III-B).
//
// The overall database graph is a typed multigraph: the set of vertex types
// partitions the vertices and the set of edge types partitions the edges
// (paper §II-A1). Vertices are addressed by (vertex type, dense local id).
package graph

import (
	"fmt"

	"graql/internal/table"
	"graql/internal/value"
)

// VID is a dense local vertex id within one vertex type.
type VID = uint32

// NoVertex marks a base-table row that produced no vertex instance (it was
// filtered out or had a NULL key).
const NoVertex = ^uint32(0)

// VertexType is a view over a base table (paper Eq. 1):
//
//	V(a1..ak) = Π_{a1..ak} σ_φ(T)
//
// One vertex instance exists per distinct key combination among the rows
// satisfying the filter. When every filtered row has a distinct key the
// mapping is one-to-one and every base-table column is an attribute of the
// vertex; otherwise the mapping is many-to-one and only the key columns are
// attributes (paper §II-A, Figs. 4–5).
type VertexType struct {
	ID   int
	Name string
	Base *table.Table
	// KeyCols are the base-table column indexes forming the vertex key.
	KeyCols []int
	// OneToOne reports whether each vertex corresponds to exactly one
	// base row.
	OneToOne bool

	// Keys holds one row per vertex instance with the key column values;
	// row ids coincide with VIDs.
	Keys *table.Table

	baseRow  []uint32          // vid -> representative base row
	rowToVID []uint32          // base row -> vid (NoVertex if none)
	keyIndex map[string]uint32 // encoded key -> vid
}

// RowPred filters base rows during view construction; nil accepts all rows.
type RowPred func(row uint32) (bool, error)

// BuildVertexType materialises a vertex type from its base table per
// Eq. 1. keyCols name the key attributes; where optionally filters base
// rows. Rows whose key contains a NULL produce no vertex.
func BuildVertexType(id int, name string, base *table.Table, keyCols []int, where RowPred) (*VertexType, error) {
	var keySchema table.Schema
	for _, c := range keyCols {
		cd := base.Schema()[c]
		keySchema = append(keySchema, table.ColumnDef{Name: cd.Name, Type: cd.Type})
	}
	keys, err := table.New(name, keySchema)
	if err != nil {
		return nil, fmt.Errorf("graql: create vertex %s: %w", name, err)
	}
	vt := &VertexType{
		ID:       id,
		Name:     name,
		Base:     base,
		KeyCols:  append([]int(nil), keyCols...),
		Keys:     keys,
		rowToVID: make([]uint32, base.NumRows()),
		keyIndex: make(map[string]uint32),
	}
	var keyBuf []byte
	keyVals := make([]value.Value, len(keyCols))
	accepted := 0
	for r := uint32(0); r < uint32(base.NumRows()); r++ {
		vt.rowToVID[r] = NoVertex
		if where != nil {
			ok, err := where(r)
			if err != nil {
				return nil, fmt.Errorf("graql: create vertex %s: %w", name, err)
			}
			if !ok {
				continue
			}
		}
		nullKey := false
		for i, c := range keyCols {
			keyVals[i] = base.Value(r, c)
			if keyVals[i].IsNull() {
				nullKey = true
				break
			}
		}
		if nullKey {
			continue
		}
		accepted++
		keyBuf = base.KeyOf(keyBuf[:0], r, keyCols)
		vid, ok := vt.keyIndex[string(keyBuf)]
		if !ok {
			vid = uint32(keys.NumRows())
			vt.keyIndex[string(keyBuf)] = vid
			if err := keys.AppendRow(keyVals); err != nil {
				return nil, fmt.Errorf("graql: create vertex %s: %w", name, err)
			}
			vt.baseRow = append(vt.baseRow, r)
		}
		vt.rowToVID[r] = vid
	}
	vt.OneToOne = accepted == keys.NumRows()
	return vt, nil
}

// Count returns the number of vertex instances.
func (vt *VertexType) Count() int { return vt.Keys.NumRows() }

// BaseRow returns the representative base-table row for a vertex. For
// one-to-one types this is the vertex's unique source row.
func (vt *VertexType) BaseRow(v VID) uint32 { return vt.baseRow[v] }

// VIDForRow returns the vertex derived from a base-table row, or NoVertex.
func (vt *VertexType) VIDForRow(row uint32) VID { return vt.rowToVID[row] }

// LookupKey returns the vertex whose encoded key equals key.
func (vt *VertexType) LookupKey(key []byte) (VID, bool) {
	v, ok := vt.keyIndex[string(key)]
	return v, ok
}

// LookupKeyValues returns the vertex with the given key values.
func (vt *VertexType) LookupKeyValues(vals []value.Value) (VID, bool) {
	var buf []byte
	for _, v := range vals {
		buf = v.AppendKey(buf)
	}
	return vt.LookupKey(buf)
}

// AttrIndex resolves an attribute name visible on this vertex type. For a
// one-to-one type every base-table column is visible; for a many-to-one
// type only the key columns are. The returned index addresses either the
// base table (one-to-one) or the Keys table.
func (vt *VertexType) AttrIndex(name string) (int, bool) {
	if vt.OneToOne {
		i := vt.Base.Schema().Index(name)
		return i, i >= 0
	}
	i := vt.Keys.Schema().Index(name)
	return i, i >= 0
}

// AttrType returns the type of the attribute previously resolved by
// AttrIndex.
func (vt *VertexType) AttrType(col int) value.Type {
	if vt.OneToOne {
		return vt.Base.Schema()[col].Type
	}
	return vt.Keys.Schema()[col].Type
}

// AttrName returns the name of the resolved attribute column.
func (vt *VertexType) AttrName(col int) string {
	if vt.OneToOne {
		return vt.Base.Schema()[col].Name
	}
	return vt.Keys.Schema()[col].Name
}

// AttrValue returns attribute col of vertex v, resolved per AttrIndex.
func (vt *VertexType) AttrValue(v VID, col int) value.Value {
	return vt.AttrTable().Value(vt.AttrRow(v), col)
}

// AttrTable returns the table the AttrIndex columns address: the base
// table for a one-to-one type, the Keys table otherwise.
func (vt *VertexType) AttrTable() *table.Table {
	if vt.OneToOne {
		return vt.Base
	}
	return vt.Keys
}

// AttrRow returns vertex v's row in AttrTable.
func (vt *VertexType) AttrRow(v VID) uint32 {
	if vt.OneToOne {
		return vt.baseRow[v]
	}
	return v
}

// AttrSchema returns the full attribute schema visible on this vertex type
// (all base columns for one-to-one, key columns for many-to-one).
func (vt *VertexType) AttrSchema() table.Schema {
	if vt.OneToOne {
		return vt.Base.Schema()
	}
	return vt.Keys.Schema()
}

// KeyString renders vertex v's key values for display, comma-separated.
func (vt *VertexType) KeyString(v VID) string {
	s := ""
	for c := 0; c < vt.Keys.NumCols(); c++ {
		if c > 0 {
			s += ","
		}
		s += vt.Keys.Value(v, c).String()
	}
	return s
}
