package table

import (
	"fmt"

	"graql/internal/value"
)

// Table is an in-memory, strongly typed columnar table. Rows are addressed
// by dense uint32 ids in insertion order.
type Table struct {
	Name   string
	schema Schema
	cols   []Column
	rows   int
}

// New returns an empty table with the given (validated) schema.
func New(name string, schema Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Name: name, schema: schema.Clone()}
	t.cols = make([]Column, len(schema))
	for i, c := range schema {
		t.cols[i] = NewColumn(c.Type)
	}
	return t, nil
}

// MustNew is New for statically known-good schemas; it panics on error.
func MustNew(name string, schema Schema) *Table {
	t, err := New(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the table's schema. Callers must not modify it.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Col returns the i-th column.
func (t *Table) Col(i int) Column { return t.cols[i] }

// ColByName returns the named column, or nil.
func (t *Table) ColByName(name string) Column {
	i := t.schema.Index(name)
	if i < 0 {
		return nil
	}
	return t.cols[i]
}

// Value returns the value at (row, col).
func (t *Table) Value(row uint32, col int) value.Value {
	return t.cols[col].Value(row)
}

// AppendRow appends one row of typed values. The slice must have one value
// per column with matching kinds.
func (t *Table) AppendRow(vals []value.Value) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("graql: table %s: row has %d values, want %d", t.Name, len(vals), len(t.cols))
	}
	for i, v := range vals {
		if err := t.cols[i].Append(v); err != nil {
			return fmt.Errorf("graql: table %s column %s: %w", t.Name, t.schema[i].Name, err)
		}
	}
	t.rows++
	return nil
}

// AppendStrings parses and appends one textual record (e.g. a CSV record)
// according to the schema's column types.
func (t *Table) AppendStrings(rec []string) error {
	if len(rec) != len(t.cols) {
		return fmt.Errorf("graql: table %s: record has %d fields, want %d", t.Name, len(rec), len(t.cols))
	}
	vals := make([]value.Value, len(rec))
	for i, s := range rec {
		v, err := value.Parse(s, t.schema[i].Type)
		if err != nil {
			return fmt.Errorf("graql: table %s column %s: %w", t.Name, t.schema[i].Name, err)
		}
		vals[i] = v
	}
	return t.AppendRow(vals)
}

// Row materialises row i as a value slice (for display and tests; hot paths
// use columnar access).
func (t *Table) Row(i uint32) []value.Value {
	out := make([]value.Value, len(t.cols))
	for c := range t.cols {
		out[c] = t.cols[c].Value(i)
	}
	return out
}

// Gather returns a new table containing the given rows, in order.
func (t *Table) Gather(name string, idx []uint32) *Table {
	out := &Table{Name: name, schema: t.schema.Clone(), rows: len(idx)}
	out.cols = make([]Column, len(t.cols))
	for i, c := range t.cols {
		out.cols[i] = c.Gather(idx)
	}
	return out
}

// Clone returns a deep copy of the table: appending to or rewriting the
// clone never disturbs the original, so mutations can build a new table
// version aside while readers keep using the published one.
func (t *Table) Clone() *Table {
	out := &Table{Name: t.Name, schema: t.schema.Clone(), rows: t.rows}
	out.cols = make([]Column, len(t.cols))
	for i, c := range t.cols {
		out.cols[i] = cloneColumn(c)
	}
	return out
}

// ProjectCols returns a new table with only the named column indexes, in
// the given order, preserving all rows.
func (t *Table) ProjectCols(name string, colIdx []int, names []string) *Table {
	out := &Table{Name: name, rows: t.rows}
	for j, ci := range colIdx {
		cn := t.schema[ci].Name
		if names != nil && names[j] != "" {
			cn = names[j]
		}
		out.schema = append(out.schema, ColumnDef{Name: cn, Type: value.Type{Kind: t.cols[ci].Kind()}})
		out.cols = append(out.cols, t.cols[ci])
	}
	return out
}

// AppendTable appends all rows of src, whose schema must be
// kind-compatible column by column.
func (t *Table) AppendTable(src *Table) error {
	if src.NumCols() != t.NumCols() {
		return fmt.Errorf("graql: append: column count mismatch (%d vs %d)", src.NumCols(), t.NumCols())
	}
	return t.AppendColumns(src.cols)
}

// AppendColumns appends rows given column-wise: cols[i] extends column
// i, and every cols[i] holds the same number of rows. Same-kind columns
// append their payloads (string columns remap dictionary codes) instead
// of boxing each value; the varchar widths of the table's schema still
// hold, and a too-wide one fails the append before any row is added.
func (t *Table) AppendColumns(cols []Column) error {
	if len(cols) != len(t.cols) {
		return fmt.Errorf("graql: table %s: %d columns appended, want %d", t.Name, len(cols), len(t.cols))
	}
	n := -1
	for i, c := range cols {
		if n >= 0 && c.Len() != n {
			return fmt.Errorf("graql: table %s column %s: %d rows appended, want %d", t.Name, t.schema[i].Name, c.Len(), n)
		}
		n = c.Len()
	}
	// A too-wide varchar fails the append where AppendRow would: at the
	// first offending row, and within it the first offending column.
	bad, badRow := -1, 0
	var badErr error
	for i, c := range cols {
		if r, err := overlongRow(t.cols[i], c); r >= 0 && (bad < 0 || r < badRow) {
			bad, badRow, badErr = i, r, err
		}
	}
	if bad >= 0 {
		return fmt.Errorf("graql: table %s column %s: %w", t.Name, t.schema[bad].Name, badErr)
	}
	for i, c := range cols {
		if err := appendColumn(t.cols[i], c); err != nil {
			return fmt.Errorf("graql: table %s column %s: %w", t.Name, t.schema[i].Name, err)
		}
	}
	if n > 0 {
		t.rows += n
	}
	return nil
}

// KeyOf encodes the values of the given columns at row i into a canonical
// byte key (appended to dst), for joins and group-by.
func (t *Table) KeyOf(dst []byte, row uint32, cols []int) []byte {
	for _, c := range cols {
		dst = t.cols[c].Value(row).AppendKey(dst)
	}
	return dst
}
