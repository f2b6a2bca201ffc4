package table

import (
	"fmt"

	"graql/internal/value"
)

// Seekable reports whether columns of kind k support SeekEq.
func Seekable(k value.Kind) bool {
	return k == value.KindString || k == value.KindInt || k == value.KindDate
}

// SeekEq returns the ascending ids of the rows where `col = v` is not
// false: the rows holding v, and the rows where col is NULL (there the
// comparison is unknown, and a caller evaluating a larger predicate may
// still need to visit them). v must be a non-NULL value of the column's
// kind, which must be Seekable.
//
// It is one typed pass over the column with no per-row value boxing or
// expression evaluation: a string probe looks its dictionary code up
// once and compares codes, an int or date probe compares the stored
// integers. It keeps no state, so concurrent seeks need no locking.
func (t *Table) SeekEq(col int, v value.Value) []uint32 {
	c := t.cols[col]
	if v.IsNull() || v.Kind() != c.Kind() || !Seekable(c.Kind()) {
		panic(fmt.Sprintf("graql: SeekEq on %s column with %s value (null=%v)", c.Kind(), v.Kind(), v.IsNull()))
	}
	var out []uint32
	switch c := c.(type) {
	case *stringColumn:
		code, ok := c.index[v.Str()]
		if !ok {
			code = nullCode // absent value: only the NULL rows remain
		}
		for r, x := range c.codes {
			if x == code || x == nullCode {
				out = append(out, uint32(r))
			}
		}
	case *intColumn:
		want := v.Int()
		for r, x := range c.data {
			if x == want || c.nil_.has(uint32(r)) {
				out = append(out, uint32(r))
			}
		}
	}
	return out
}
