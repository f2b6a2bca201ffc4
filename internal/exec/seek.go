package exec

import (
	"graql/internal/expr"
	"graql/internal/graph"
	"graql/internal/table"
	"graql/internal/value"
)

// keySeek is the access path of a seekable predicate: one whose leftmost
// conjunct, after parameter binding, is `col = constant` with a non-NULL
// string, int or date constant of the column's kind. Table selects get
// the matching rows from one typed pass over the column (table.SeekEq);
// graph steps look the vertex up by its key. Either way the full
// predicate is then evaluated on just those rows.
//
// Only the leftmost conjunct may drive the seek because evaluation
// starts there: a row on which it is false short-circuits the whole
// conjunction in a scan too, so the seek skips exactly the rows a scan
// would have rejected without evaluating anything else, and the
// results, their order and any runtime error stay the scan's. (A row
// where the column is NULL makes the conjunct unknown, not false; the
// table seek keeps those rows, and vertex keys are never NULL.)
type keySeek struct {
	col  int
	val  value.Value
	cond *expr.Binary // the equality conjunct, for plan and span labels
}

// seekOf recognizes a seekable predicate over source src, whose column
// kinds kindOf reports. cond must be parameter-bound; anything else —
// including an unbound parameter — is not seekable.
func seekOf(cond expr.Expr, src int, kindOf func(col int) value.Kind) (keySeek, bool) {
	for {
		b, ok := cond.(*expr.Binary)
		if !ok || b.Op != expr.OpAnd {
			break
		}
		cond = b.L
	}
	eq, ok := cond.(*expr.Binary)
	if !ok || eq.Op != expr.OpEq {
		return keySeek{}, false
	}
	ref, lit := refAndConst(eq.L, eq.R)
	if ref == nil {
		ref, lit = refAndConst(eq.R, eq.L)
	}
	if ref == nil || ref.Source != src {
		return keySeek{}, false
	}
	k := kindOf(ref.Col)
	if lit.V.IsNull() || lit.V.Kind() != k || !table.Seekable(k) {
		return keySeek{}, false
	}
	return keySeek{col: ref.Col, val: lit.V, cond: eq}, true
}

func refAndConst(a, b expr.Expr) (*expr.Ref, *expr.Const) {
	r, ok := a.(*expr.Ref)
	if !ok {
		return nil, nil
	}
	c, ok := b.(*expr.Const)
	if !ok {
		return nil, nil
	}
	return r, c
}

// tableSeek recognizes a seekable table-select where clause.
func tableSeek(where expr.Expr, t *table.Table) (keySeek, bool) {
	return seekOf(where, 0, func(col int) value.Kind { return t.Col(col).Kind() })
}

// vertexSeek recognizes a seekable step condition whose column is the
// vertex type's single key attribute, so the type's key index finds the
// one vertex it can select.
func vertexSeek(cond expr.Expr, node int, vt *graph.VertexType) (keySeek, bool) {
	if vt == nil || len(vt.KeyCols) != 1 {
		return keySeek{}, false
	}
	ks, ok := seekOf(cond, node, func(col int) value.Kind { return vt.AttrType(col).Kind })
	if !ok {
		return keySeek{}, false
	}
	key := 0 // a many-to-one type's attributes are its key columns
	if vt.OneToOne {
		key = vt.KeyCols[0]
	}
	return ks, ks.col == key
}
