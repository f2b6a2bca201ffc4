package table

import (
	"fmt"
	"maps"
	"slices"

	"graql/internal/value"
)

// Column is a typed columnar vector. Implementations store values densely
// with a side null bitmap, giving cache-friendly scans for filters and
// joins.
type Column interface {
	// Kind returns the scalar kind stored in the column.
	Kind() value.Kind
	// Len returns the number of rows.
	Len() int
	// Value returns the value at row i.
	Value(i uint32) value.Value
	// Append appends v, which must match the column kind (or be NULL).
	Append(v value.Value) error
	// Gather returns a new column holding the rows named by idx, in order.
	Gather(idx []uint32) Column
	// Distinct returns the number of distinct values when cheaply known
	// (dictionary-encoded columns), else -1. The planner uses it as the
	// NDV statistic for equality selectivity (§III-B).
	Distinct() int
}

// NewColumn returns an empty column of the given type.
func NewColumn(t value.Type) Column {
	switch t.Kind {
	case value.KindBool:
		return &boolColumn{}
	case value.KindInt:
		return &intColumn{kind: value.KindInt}
	case value.KindDate:
		return &intColumn{kind: value.KindDate}
	case value.KindFloat:
		return &floatColumn{}
	case value.KindString:
		return &stringColumn{width: t.Width}
	}
	panic(fmt.Sprintf("graql: NewColumn: invalid type %v", t))
}

// nulls tracks NULL rows for a column. nil means "no nulls so far".
type nulls struct {
	set map[uint32]bool
}

func (n *nulls) mark(i uint32) {
	if n.set == nil {
		n.set = make(map[uint32]bool)
	}
	n.set[i] = true
}

func (n *nulls) has(i uint32) bool { return n.set != nil && n.set[i] }

// clone returns an independent copy.
func (n *nulls) clone() nulls { return nulls{set: maps.Clone(n.set)} }

// appendFrom marks src's NULL rows, shifted to start at row off.
func (n *nulls) appendFrom(src *nulls, off int) {
	for i := range src.set {
		n.mark(uint32(off) + i)
	}
}

// intColumn stores integers and dates (days since epoch).
type intColumn struct {
	data []int64
	nil_ nulls
	kind value.Kind
}

func (c *intColumn) Kind() value.Kind { return c.kind }
func (c *intColumn) Len() int         { return len(c.data) }

func (c *intColumn) Value(i uint32) value.Value {
	if c.nil_.has(i) {
		return value.NewNull(c.kind)
	}
	if c.kind == value.KindDate {
		return value.NewDate(c.data[i])
	}
	return value.NewInt(c.data[i])
}

func (c *intColumn) Append(v value.Value) error {
	if v.IsNull() {
		c.nil_.mark(uint32(len(c.data)))
		c.data = append(c.data, 0)
		return nil
	}
	if v.Kind() != c.kind {
		return &value.TypeError{Op: "store", A: c.kind, B: v.Kind()}
	}
	c.data = append(c.data, v.Int())
	return nil
}

func (c *intColumn) Gather(idx []uint32) Column {
	out := &intColumn{data: make([]int64, len(idx)), kind: c.kind}
	for j, i := range idx {
		out.data[j] = c.data[i]
		if c.nil_.has(i) {
			out.nil_.mark(uint32(j))
		}
	}
	return out
}

// Int64s exposes the raw integer payload for fast typed scans.
func (c *intColumn) Int64s() []int64 { return c.data }

func (c *intColumn) Distinct() int { return -1 }

type floatColumn struct {
	data []float64
	nil_ nulls
}

func (c *floatColumn) Kind() value.Kind { return value.KindFloat }
func (c *floatColumn) Len() int         { return len(c.data) }

func (c *floatColumn) Value(i uint32) value.Value {
	if c.nil_.has(i) {
		return value.NewNull(value.KindFloat)
	}
	return value.NewFloat(c.data[i])
}

func (c *floatColumn) Append(v value.Value) error {
	if v.IsNull() {
		c.nil_.mark(uint32(len(c.data)))
		c.data = append(c.data, 0)
		return nil
	}
	if !v.Kind().Numeric() {
		return &value.TypeError{Op: "store", A: value.KindFloat, B: v.Kind()}
	}
	c.data = append(c.data, v.Float())
	return nil
}

func (c *floatColumn) Gather(idx []uint32) Column {
	out := &floatColumn{data: make([]float64, len(idx))}
	for j, i := range idx {
		out.data[j] = c.data[i]
		if c.nil_.has(i) {
			out.nil_.mark(uint32(j))
		}
	}
	return out
}

func (c *floatColumn) Distinct() int { return -1 }

type boolColumn struct {
	data []bool
	nil_ nulls
}

func (c *boolColumn) Kind() value.Kind { return value.KindBool }
func (c *boolColumn) Len() int         { return len(c.data) }

func (c *boolColumn) Value(i uint32) value.Value {
	if c.nil_.has(i) {
		return value.NewNull(value.KindBool)
	}
	return value.NewBool(c.data[i])
}

func (c *boolColumn) Append(v value.Value) error {
	if v.IsNull() {
		c.nil_.mark(uint32(len(c.data)))
		c.data = append(c.data, false)
		return nil
	}
	if v.Kind() != value.KindBool {
		return &value.TypeError{Op: "store", A: value.KindBool, B: v.Kind()}
	}
	c.data = append(c.data, v.Bool())
	return nil
}

func (c *boolColumn) Gather(idx []uint32) Column {
	out := &boolColumn{data: make([]bool, len(idx))}
	for j, i := range idx {
		out.data[j] = c.data[i]
		if c.nil_.has(i) {
			out.nil_.mark(uint32(j))
		}
	}
	return out
}

func (c *boolColumn) Distinct() int { return 2 }

// stringColumn stores varchar data with dictionary encoding: each distinct
// string is stored once and rows hold 32-bit codes. Attribute data such as
// country codes and product types in the Berlin schema is highly
// repetitive, so this both saves memory and turns equality filters into
// integer comparisons.
//
// The dictionary lists exactly the strings the rows hold, in order of
// first appearance. Every operation keeps that invariant, so Gather and
// appendFrom can remap codes instead of re-appending strings and still
// build the dictionary a row-by-row Append would.
type stringColumn struct {
	codes []uint32
	dict  []string
	// index maps each dictionary string to its code. It is nil or
	// complete: Gather and an adopting appendFrom leave it nil, and the
	// next Append builds it (appends never run beside readers).
	index map[string]uint32
	width int
}

const nullCode = ^uint32(0)

func (c *stringColumn) Kind() value.Kind { return value.KindString }
func (c *stringColumn) Len() int         { return len(c.codes) }

func (c *stringColumn) Value(i uint32) value.Value {
	code := c.codes[i]
	if code == nullCode {
		return value.NewNull(value.KindString)
	}
	return value.NewString(c.dict[code])
}

func (c *stringColumn) Append(v value.Value) error {
	if v.IsNull() {
		c.codes = append(c.codes, nullCode)
		return nil
	}
	if v.Kind() != value.KindString {
		return &value.TypeError{Op: "store", A: value.KindString, B: v.Kind()}
	}
	s := v.Str()
	if err := c.checkWidth(s); err != nil {
		return err
	}
	c.codes = append(c.codes, c.code(s))
	return nil
}

func (c *stringColumn) checkWidth(s string) error {
	if c.width > 0 && len(s) > c.width {
		return fmt.Errorf("graql: value %q exceeds varchar(%d)", s, c.width)
	}
	return nil
}

// ensureIndex builds the string→code index when the column has none.
func (c *stringColumn) ensureIndex() {
	if c.index == nil {
		c.index = make(map[string]uint32, len(c.dict))
		for k, d := range c.dict {
			c.index[d] = uint32(k)
		}
	}
}

// code returns the dictionary code of s, adding s when it is new.
func (c *stringColumn) code(s string) uint32 {
	c.ensureIndex()
	code, ok := c.index[s]
	if !ok {
		code = uint32(len(c.dict))
		c.dict = append(c.dict, s)
		c.index[s] = code
	}
	return code
}

// lookup returns the code of s without modifying the column, so
// concurrent readers may call it: through the index when the column has
// one, else by a scan of the dictionary.
func (c *stringColumn) lookup(s string) (uint32, bool) {
	if c.index != nil {
		code, ok := c.index[s]
		return code, ok
	}
	for k, d := range c.dict {
		if d == s {
			return uint32(k), true
		}
	}
	return 0, false
}

// Gather remaps the gathered rows' codes into a dictionary of the strings
// they hold, in order of first appearance, without hashing a string.
func (c *stringColumn) Gather(idx []uint32) Column {
	out := &stringColumn{codes: make([]uint32, len(idx)), width: c.width}
	// remapped[code] is the output code plus one (0: not seen yet). A
	// gather touching few rows of a large dictionary uses a map, since
	// clearing a slice as long as the dictionary would dominate it.
	var dense []uint32
	var sparse map[uint32]uint32
	if len(idx) >= len(c.dict)/8 {
		dense = make([]uint32, len(c.dict))
	} else {
		sparse = make(map[uint32]uint32, len(idx))
	}
	for j, i := range idx {
		code := c.codes[i]
		if code == nullCode {
			out.codes[j] = nullCode
			continue
		}
		var r uint32
		if dense != nil {
			r = dense[code]
		} else {
			r = sparse[code]
		}
		if r == 0 {
			out.dict = append(out.dict, c.dict[code])
			r = uint32(len(out.dict))
			if dense != nil {
				dense[code] = r
			} else {
				sparse[code] = r
			}
		}
		out.codes[j] = r - 1
	}
	return out
}

// firstOverlong returns the first row of src holding a string wider
// than the column's varchar width, and the error Append reports for it;
// row -1 when every string fits.
func (c *stringColumn) firstOverlong(src *stringColumn) (int, error) {
	if c.width <= 0 {
		return -1, nil
	}
	var wide []bool // by src code
	for k, s := range src.dict {
		if len(s) > c.width {
			if wide == nil {
				wide = make([]bool, len(src.dict))
			}
			wide[k] = true
		}
	}
	if wide == nil {
		return -1, nil
	}
	for r, x := range src.codes {
		if x != nullCode && wide[x] {
			return r, c.checkWidth(src.dict[x])
		}
	}
	return -1, nil
}

// appendFrom appends every row of src, remapping its codes into the
// column's dictionary; an empty column adopts src's codes and dictionary
// outright. The caller has checked widths (firstOverlong).
func (c *stringColumn) appendFrom(src *stringColumn) {
	if len(c.codes) == 0 {
		// Capacity-capped views: an append on either side reallocates
		// instead of writing into the other's backing array.
		c.codes = src.codes[:len(src.codes):len(src.codes)]
		c.dict = src.dict[:len(src.dict):len(src.dict)]
		c.index = nil
		return
	}
	remap := make([]uint32, len(src.dict))
	for k, s := range src.dict {
		remap[k] = c.code(s)
	}
	for _, x := range src.codes {
		if x != nullCode {
			x = remap[x]
		}
		c.codes = append(c.codes, x)
	}
}

// DictSize returns the number of distinct strings in the column dictionary.
func (c *stringColumn) DictSize() int { return len(c.dict) }

func (c *stringColumn) Distinct() int { return len(c.dict) }

// cloneColumn returns an independent copy of c: payloads, NULL sets and
// a string column's dictionary and index are copied as they are.
func cloneColumn(c Column) Column {
	switch c := c.(type) {
	case *intColumn:
		return &intColumn{data: slices.Clone(c.data), nil_: c.nil_.clone(), kind: c.kind}
	case *floatColumn:
		return &floatColumn{data: slices.Clone(c.data), nil_: c.nil_.clone()}
	case *boolColumn:
		return &boolColumn{data: slices.Clone(c.data), nil_: c.nil_.clone()}
	case *stringColumn:
		return &stringColumn{codes: slices.Clone(c.codes), dict: slices.Clone(c.dict),
			index: maps.Clone(c.index), width: c.width}
	}
	panic(fmt.Sprintf("graql: cloneColumn: unknown column %T", c))
}

// overlongRow is firstOverlong for a pair of string columns; row -1
// for any other pair (a value-by-value append checks as it goes).
func overlongRow(dst, src Column) (int, error) {
	d, ok := dst.(*stringColumn)
	s, ok2 := src.(*stringColumn)
	if !ok || !ok2 {
		return -1, nil
	}
	return d.firstOverlong(s)
}

// appendColumn appends every row of src to dst. Columns of the same
// representation copy their payload (string columns remap dictionary
// codes, widths checked beforehand by overlongRow); anything else goes
// value by value through Append.
func appendColumn(dst, src Column) error {
	switch d := dst.(type) {
	case *intColumn:
		if s, ok := src.(*intColumn); ok && s.kind == d.kind {
			d.nil_.appendFrom(&s.nil_, len(d.data))
			d.data = append(d.data, s.data...)
			return nil
		}
	case *floatColumn:
		if s, ok := src.(*floatColumn); ok {
			d.nil_.appendFrom(&s.nil_, len(d.data))
			d.data = append(d.data, s.data...)
			return nil
		}
	case *boolColumn:
		if s, ok := src.(*boolColumn); ok {
			d.nil_.appendFrom(&s.nil_, len(d.data))
			d.data = append(d.data, s.data...)
			return nil
		}
	case *stringColumn:
		if s, ok := src.(*stringColumn); ok {
			d.appendFrom(s)
			return nil
		}
	}
	for i := 0; i < src.Len(); i++ {
		if err := dst.Append(src.Value(uint32(i))); err != nil {
			return err
		}
	}
	return nil
}
