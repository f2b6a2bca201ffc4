package expr

import (
	"fmt"

	"graql/internal/value"
)

// Rewrite returns a copy of e with f applied bottom-up to every node. If f
// returns nil for a node, the (possibly child-rewritten) node is kept.
func Rewrite(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *Unary:
		e = &Unary{Op: n.Op, X: Rewrite(n.X, f), Loc: n.Loc}
	case *Binary:
		e = &Binary{Op: n.Op, L: Rewrite(n.L, f), R: Rewrite(n.R, f), Loc: n.Loc}
	case *Ref:
		cp := *n
		e = &cp
	}
	if r := f(e); r != nil {
		return r
	}
	return e
}

// Walk invokes f on every node of e, top-down.
func Walk(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch n := e.(type) {
	case *Unary:
		Walk(n.X, f)
	case *Binary:
		Walk(n.L, f)
		Walk(n.R, f)
	}
}

// BindParams substitutes %name% parameters with the given values. A
// parameter with no binding is an error (the paper's queries are templates;
// execution needs concrete values). Subtrees without parameters are
// shared with e, not copied: evaluation never mutates an expression.
func BindParams(e Expr, params map[string]value.Value) (Expr, error) {
	return Bind(e, func(name string) (value.Value, bool) {
		v, ok := params[name]
		return v, ok
	}, false)
}

// Bind is BindParams with parameters resolved by lookup. With fold set it
// also folds, as Fold does, every node binding changes: subtrees that
// become constant only once their parameters are bound fold exactly as
// literal subtrees fold at analysis, so an analyzed condition run with
// bound parameters is the one its literal spelling would run.
func Bind(e Expr, lookup func(name string) (value.Value, bool), fold bool) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	b := binder{lookup: lookup, fold: fold}
	out := b.walk(e)
	if b.missing != "" {
		return nil, fmt.Errorf("graql: no binding for parameter %%%s%%", b.missing)
	}
	return out, nil
}

type binder struct {
	lookup  func(string) (value.Value, bool)
	fold    bool
	missing string // the first unbound parameter
}

// Folded booleans carry no span: bound conditions are only evaluated.
var boundTrue, boundFalse = &Const{V: value.NewBool(true)}, &Const{V: value.NewBool(false)}

// walk rebuilds only the nodes above a parameter. Folding evaluates
// constant operands in place, and a connective that folds to one of its
// operands is evaluated from a stack copy, so a condition that folds
// away allocates nothing.
func (b *binder) walk(e Expr) Expr {
	switch n := e.(type) {
	case *Param:
		v, ok := b.lookup(n.Name)
		if !ok {
			if b.missing == "" {
				b.missing = n.Name
			}
			return n
		}
		return &Const{V: v, Loc: n.Loc}
	case *Unary:
		x := b.walk(n.X)
		if x == n.X {
			return n
		}
		u := Unary{Op: n.Op, X: x, Loc: n.Loc}
		if b.fold {
			if f := foldNode(&u); f != nil {
				return f
			}
		}
		return &Unary{Op: u.Op, X: u.X, Loc: u.Loc}
	case *Binary:
		if b.fold && !n.Op.Logical() {
			if l, ok := b.value(n.L); ok {
				if r, ok := b.value(n.R); ok {
					if v, err := evalOperands(n.Op, l, r); err == nil {
						switch {
						case v.Kind() != value.KindBool || v.IsNull():
							return &Const{V: v, Loc: n.Loc}
						case v.Bool():
							return boundTrue
						default:
							return boundFalse
						}
					}
				}
			}
		}
		l, r := b.walk(n.L), b.walk(n.R)
		if l == n.L && r == n.R {
			return n
		}
		bin := Binary{Op: n.Op, L: l, R: r, Loc: n.Loc}
		if b.fold {
			if f := foldNode(&bin); f != nil {
				return f
			}
		}
		return &Binary{Op: bin.Op, L: bin.L, R: bin.R, Loc: bin.Loc}
	}
	return e
}

// value returns the constant an operand binds to, if it is one.
func (b *binder) value(e Expr) (value.Value, bool) {
	switch n := e.(type) {
	case *Const:
		return n.V, true
	case *Param:
		return b.lookup(n.Name)
	}
	return value.Value{}, false
}

// Params returns the distinct parameter names appearing in e, in first-use
// order.
func Params(e Expr) []string {
	var names []string
	seen := map[string]bool{}
	Walk(e, func(n Expr) {
		if p, ok := n.(*Param); ok && !seen[p.Name] {
			seen[p.Name] = true
			names = append(names, p.Name)
		}
	})
	return names
}

// Refs returns every Ref node in e, in source order.
func Refs(e Expr) []*Ref {
	var out []*Ref
	Walk(e, func(n Expr) {
		if r, ok := n.(*Ref); ok {
			out = append(out, r)
		}
	})
	return out
}

// Conjuncts splits e on top-level AND into its conjuncts. A nil expression
// yields no conjuncts.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll combines the given expressions with AND; nil for an empty slice.
func AndAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = NewBinary(OpAnd, out, e)
		}
	}
	return out
}

// EqualityPair reports whether e is an equality comparison between two
// column references and returns them.
func EqualityPair(e Expr) (l, r *Ref, ok bool) {
	b, isBin := e.(*Binary)
	if !isBin || b.Op != OpEq {
		return nil, nil, false
	}
	lr, lok := b.L.(*Ref)
	rr, rok := b.R.(*Ref)
	if !lok || !rok {
		return nil, nil, false
	}
	return lr, rr, true
}
