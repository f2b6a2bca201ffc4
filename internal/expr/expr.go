// Package expr implements the typed scalar expression trees used by GraQL
// where-clauses and query-step conditions.
//
// Expressions are built by the parser with unresolved identifier
// references; static analysis (internal/sema) resolves each reference to a
// (source, column) pair — a source being a table in scope or a step in a
// path query — and type-checks the tree. Evaluation then reads values
// through the Env interface, so the same expression machinery works for
// table scans, vertex-step filters, and cross-step label comparisons.
package expr

import (
	"fmt"
	"strings"

	"graql/internal/diag"
	"graql/internal/value"
)

// Op enumerates expression operators.
type Op uint8

// Operators.
const (
	OpInvalid Op = iota
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
)

// String returns the GraQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpNot:
		return "not"
	case OpAdd:
		return "+"
	case OpSub, OpNeg:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	}
	return "?"
}

// Comparison reports whether o is a comparison operator.
func (o Op) Comparison() bool { return o >= OpEq && o <= OpGe }

// Logical reports whether o is a boolean connective.
func (o Op) Logical() bool { return o == OpAnd || o == OpOr || o == OpNot }

// Arith reports whether o is an arithmetic operator.
func (o Op) Arith() bool { return o >= OpAdd && o <= OpMod }

// Env supplies column values during evaluation.
type Env interface {
	// Lookup returns the value of the resolved reference (source, col).
	Lookup(source, col int) value.Value
}

// TypeEnv supplies column types during static analysis.
type TypeEnv interface {
	TypeOf(source, col int) value.Type
}

// Expr is a node in an expression tree.
type Expr interface {
	// Eval computes the expression's value in env.
	Eval(env Env) (value.Value, error)
	// Check type-checks the expression and returns its static type.
	// Type errors are *diag.Diagnostic values carrying the node's span.
	Check(env TypeEnv) (value.Type, error)
	// String renders GraQL source for the expression.
	String() string
}

// StaticType returns the inferred type annotation recorded on e by the
// most recent successful Check call. Nodes that have never been checked
// (or whose type cannot be proven statically, e.g. unbound parameters)
// report value.Invalid. The annotation is what downstream consumers —
// EXPLAIN, the IR verifier, the cardinality estimator — read instead of
// re-running inference.
func StaticType(e Expr) value.Type {
	switch n := e.(type) {
	case *Const:
		return value.Type{Kind: n.V.Kind()}
	case *Param:
		return value.Invalid
	case *Ref:
		return n.Typ
	case *Unary:
		return n.Typ
	case *Binary:
		return n.Typ
	}
	return value.Invalid
}

// SpanOf returns the source span of a node. Nodes built without position
// information (IR decoding, hand-built tests) yield the zero span.
func SpanOf(e Expr) diag.Span {
	switch n := e.(type) {
	case *Const:
		return n.Loc
	case *Param:
		return n.Loc
	case *Ref:
		return n.Loc
	case *Unary:
		return n.Loc
	case *Binary:
		return n.Loc
	}
	return diag.Span{}
}

// typeDiag builds a positioned static type error for node e.
func typeDiag(e Expr, code diag.Code, format string, args ...any) error {
	return &diag.Diagnostic{
		Severity: diag.SevError,
		Code:     code,
		Span:     SpanOf(e),
		Msg:      fmt.Sprintf(format, args...),
	}
}

// Const is a literal value.
type Const struct {
	V   value.Value
	Loc diag.Span
}

// NewConst returns a literal expression.
func NewConst(v value.Value) *Const { return &Const{V: v} }

// Eval implements Expr.
func (c *Const) Eval(Env) (value.Value, error) { return c.V, nil }

// Check implements Expr.
func (c *Const) Check(TypeEnv) (value.Type, error) { return value.Type{Kind: c.V.Kind()}, nil }

func (c *Const) String() string {
	if c.V.IsNull() {
		return c.V.String()
	}
	switch c.V.Kind() {
	case value.KindString:
		return "'" + strings.ReplaceAll(c.V.Str(), "'", "''") + "'"
	case value.KindDate:
		// Render the explicit date-literal form so the output re-parses
		// as a date (a bare quoted string would round-trip as varchar).
		return "date '" + c.V.String() + "'"
	case value.KindFloat:
		// An integral float needs its point to re-parse as a float:
		// rendered "2", 2.0 would come back as an integer, and a plan
		// cached under the rendering of n / 2 would serve n / 2.0.
		if s := c.V.String(); !strings.ContainsAny(s, ".eEIN") {
			return s + ".0"
		}
	}
	return c.V.String()
}

// Param is a query parameter such as %Product1% in the paper's Berlin
// queries. Parameters must be substituted (see Bind) before evaluation.
type Param struct {
	Name string
	Loc  diag.Span
}

// Eval implements Expr; an unbound parameter is an execution error.
func (p *Param) Eval(Env) (value.Value, error) {
	return value.Value{}, fmt.Errorf("graql: unbound parameter %%%s%%", p.Name)
}

// Check implements Expr. A parameter's type is unknown statically; it
// checks as comparable-with-anything by reporting an invalid type that
// comparison checking treats as a wildcard.
func (p *Param) Check(TypeEnv) (value.Type, error) { return value.Invalid, nil }

func (p *Param) String() string { return "%" + p.Name + "%" }

// Ref is a column reference. Qualifier/Name hold the source text (e.g.
// ProductVtx.producer, or a bare column name); Source/Col are filled in by
// resolution. Source -1 means unresolved.
type Ref struct {
	Qualifier string
	Name      string
	Source    int
	Col       int
	Typ       value.Type // inferred type annotation, set by Check
	Loc       diag.Span
}

// NewRef returns an unresolved reference.
func NewRef(qualifier, name string) *Ref {
	return &Ref{Qualifier: qualifier, Name: name, Source: -1}
}

// Resolved reports whether the reference has been bound to a source.
func (r *Ref) Resolved() bool { return r.Source >= 0 }

// Eval implements Expr.
func (r *Ref) Eval(env Env) (value.Value, error) {
	if !r.Resolved() {
		return value.Value{}, fmt.Errorf("graql: unresolved reference %s", r.String())
	}
	return env.Lookup(r.Source, r.Col), nil
}

// Check implements Expr.
func (r *Ref) Check(env TypeEnv) (value.Type, error) {
	if !r.Resolved() {
		return value.Invalid, fmt.Errorf("graql: unresolved reference %s", r.String())
	}
	r.Typ = env.TypeOf(r.Source, r.Col)
	return r.Typ, nil
}

func (r *Ref) String() string {
	if r.Qualifier != "" {
		return r.Qualifier + "." + r.Name
	}
	return r.Name
}

// Unary applies OpNot or OpNeg to one operand.
type Unary struct {
	Op  Op
	X   Expr
	Typ value.Type // inferred type annotation, set by Check
	Loc diag.Span
}

// Eval implements Expr.
func (u *Unary) Eval(env Env) (value.Value, error) {
	x, err := u.X.Eval(env)
	if err != nil {
		return value.Value{}, err
	}
	switch u.Op {
	case OpNot:
		if x.Kind() != value.KindBool {
			return value.Value{}, &value.TypeError{Op: "not", A: x.Kind(), B: value.KindBool}
		}
		if x.IsNull() {
			return value.NewNull(value.KindBool), nil
		}
		return value.NewBool(!x.Bool()), nil
	case OpNeg:
		switch x.Kind() {
		case value.KindInt:
			if x.IsNull() {
				return value.NewNull(value.KindInt), nil
			}
			return value.NewInt(-x.Int()), nil
		case value.KindFloat:
			if x.IsNull() {
				return value.NewNull(value.KindFloat), nil
			}
			return value.NewFloat(-x.Float()), nil
		}
		return value.Value{}, &value.TypeError{Op: "negate", A: x.Kind(), B: value.KindFloat}
	}
	return value.Value{}, fmt.Errorf("graql: bad unary operator %v", u.Op)
}

// Check implements Expr.
func (u *Unary) Check(env TypeEnv) (value.Type, error) {
	xt, err := u.X.Check(env)
	if err != nil {
		return value.Invalid, err
	}
	switch u.Op {
	case OpNot:
		if xt.Kind != value.KindBool && xt.Kind != value.KindInvalid {
			return value.Invalid, typeDiag(u, diag.BoolRequired,
				"operand of not must be boolean, got %s", xt.Kind)
		}
		u.Typ = value.Bool
		return value.Bool, nil
	case OpNeg:
		if !xt.Kind.Numeric() && xt.Kind != value.KindInvalid {
			return value.Invalid, typeDiag(u, diag.NumberRequired,
				"cannot negate %s", xt.Kind)
		}
		u.Typ = xt
		return xt, nil
	}
	return value.Invalid, fmt.Errorf("graql: bad unary operator %v", u.Op)
}

func (u *Unary) String() string { return render(u) }

// Binary applies a binary operator.
type Binary struct {
	Op   Op
	L, R Expr
	Typ  value.Type // inferred type annotation, set by Check
	Loc  diag.Span
}

// NewBinary returns a binary expression node.
func NewBinary(op Op, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

// Eval implements Expr. Comparisons follow GraQL strong typing (an
// incomparable pair is a runtime type error). NULL follows SQL
// three-valued logic: a comparison with NULL is NULL, connectives use
// Kleene semantics (false and NULL = false; true or NULL = true;
// otherwise NULL propagates), and filters treat a NULL condition as not
// satisfied. Arithmetic between two integers yields an integer
// (truncating division), otherwise a float.
func (b *Binary) Eval(env Env) (value.Value, error) {
	// Short-circuit logical connectives (Kleene).
	if b.Op == OpAnd || b.Op == OpOr {
		l, err := b.L.Eval(env)
		if err != nil {
			return value.Value{}, err
		}
		if l.Kind() != value.KindBool {
			return value.Value{}, &value.TypeError{Op: b.Op.String(), A: l.Kind(), B: value.KindBool}
		}
		// The dominant value short-circuits regardless of the right side.
		if !l.IsNull() {
			if b.Op == OpAnd && !l.Bool() {
				return value.NewBool(false), nil
			}
			if b.Op == OpOr && l.Bool() {
				return value.NewBool(true), nil
			}
		}
		r, err := b.R.Eval(env)
		if err != nil {
			return value.Value{}, err
		}
		if r.Kind() != value.KindBool {
			return value.Value{}, &value.TypeError{Op: b.Op.String(), A: r.Kind(), B: value.KindBool}
		}
		if !r.IsNull() {
			if b.Op == OpAnd && !r.Bool() {
				return value.NewBool(false), nil
			}
			if b.Op == OpOr && r.Bool() {
				return value.NewBool(true), nil
			}
		}
		if l.IsNull() || r.IsNull() {
			return value.NewNull(value.KindBool), nil
		}
		// Neither dominant nor NULL: and → true, or → false.
		return value.NewBool(b.Op == OpAnd), nil
	}

	l, err := b.L.Eval(env)
	if err != nil {
		return value.Value{}, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return value.Value{}, err
	}
	return evalOperands(b.Op, l, r)
}

// evalOperands applies a comparison or arithmetic operator to evaluated
// operands.
func evalOperands(op Op, l, r value.Value) (value.Value, error) {
	switch {
	case op.Comparison():
		if l.IsNull() || r.IsNull() {
			return value.NewNull(value.KindBool), nil
		}
		c, err := value.Compare(l, r)
		if err != nil {
			return value.Value{}, err
		}
		switch op {
		case OpEq:
			return value.NewBool(c == 0), nil
		case OpNe:
			return value.NewBool(c != 0), nil
		case OpLt:
			return value.NewBool(c < 0), nil
		case OpLe:
			return value.NewBool(c <= 0), nil
		case OpGt:
			return value.NewBool(c > 0), nil
		case OpGe:
			return value.NewBool(c >= 0), nil
		}
	case op.Arith():
		return evalArith(op, l, r)
	}
	return value.Value{}, fmt.Errorf("graql: bad binary operator %v", op)
}

func evalArith(op Op, l, r value.Value) (value.Value, error) {
	if !l.Kind().Numeric() || !r.Kind().Numeric() {
		return value.Value{}, &value.TypeError{Op: op.String(), A: l.Kind(), B: r.Kind()}
	}
	if l.IsNull() || r.IsNull() {
		return value.NewNull(value.KindFloat), nil
	}
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt {
		a, b := l.Int(), r.Int()
		switch op {
		case OpAdd:
			return value.NewInt(a + b), nil
		case OpSub:
			return value.NewInt(a - b), nil
		case OpMul:
			return value.NewInt(a * b), nil
		case OpDiv:
			if b == 0 {
				return value.Value{}, fmt.Errorf("graql: integer division by zero")
			}
			return value.NewInt(a / b), nil
		case OpMod:
			if b == 0 {
				return value.Value{}, fmt.Errorf("graql: modulo by zero")
			}
			return value.NewInt(a % b), nil
		}
	}
	a, b := l.Float(), r.Float()
	switch op {
	case OpAdd:
		return value.NewFloat(a + b), nil
	case OpSub:
		return value.NewFloat(a - b), nil
	case OpMul:
		return value.NewFloat(a * b), nil
	case OpDiv:
		return value.NewFloat(a / b), nil
	case OpMod:
		return value.Value{}, &value.TypeError{Op: "%", A: l.Kind(), B: r.Kind()}
	}
	return value.Value{}, fmt.Errorf("graql: bad arithmetic operator %v", op)
}

// Check implements Expr, enforcing the static rules of paper §III-A:
// comparisons require comparable kinds, connectives require booleans,
// arithmetic requires numerics. Invalid (wildcard, from unbound parameters)
// operands check against anything.
func (b *Binary) Check(env TypeEnv) (value.Type, error) {
	lt, err := b.L.Check(env)
	if err != nil {
		return value.Invalid, err
	}
	rt, err := b.R.Check(env)
	if err != nil {
		return value.Invalid, err
	}
	wild := lt.Kind == value.KindInvalid || rt.Kind == value.KindInvalid
	switch {
	case b.Op.Comparison():
		if !wild && !lt.Comparable(rt) {
			return value.Invalid, typeDiag(b, diag.TypeMismatch,
				"cannot compare %s with %s", lt.Kind, rt.Kind)
		}
		b.Typ = value.Bool
		return value.Bool, nil
	case b.Op.Logical():
		if (lt.Kind != value.KindBool && lt.Kind != value.KindInvalid) ||
			(rt.Kind != value.KindBool && rt.Kind != value.KindInvalid) {
			bad := lt.Kind
			if bad == value.KindBool {
				bad = rt.Kind
			}
			return value.Invalid, typeDiag(b, diag.BoolRequired,
				"operand of %s must be boolean, got %s", b.Op, bad)
		}
		b.Typ = value.Bool
		return value.Bool, nil
	case b.Op.Arith():
		if !wild && (!lt.Kind.Numeric() || !rt.Kind.Numeric()) {
			return value.Invalid, typeDiag(b, diag.NumberRequired,
				"operator %s requires numeric operands, got %s and %s", b.Op, lt.Kind, rt.Kind)
		}
		float := lt.Kind == value.KindFloat || rt.Kind == value.KindFloat
		if b.Op == OpMod && float {
			// Modulo is integer-only at runtime; a float operand is a
			// guaranteed eval error regardless of what a wildcard binds.
			return value.Invalid, typeDiag(b, diag.FloatModulo,
				"operator %% requires integer operands, got %s and %s", lt.Kind, rt.Kind)
		}
		switch {
		case float:
			b.Typ = value.Float
		case wild:
			// int OP wildcard yields int or float depending on what the
			// parameter binds — unknown statically, so stay wildcard
			// rather than guess (inference must never be wrong).
			b.Typ = value.Invalid
		default:
			b.Typ = value.Int
		}
		return b.Typ, nil
	}
	return value.Invalid, fmt.Errorf("graql: bad binary operator %v", b.Op)
}

func (b *Binary) String() string { return render(b) }

// render renders an operator tree into one builder. Rendering each node
// into its own string and splicing it into the parent's copies every
// subtree once per ancestor — quadratic in the depth of an and-chain.
func render(e Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e)
	return sb.String()
}

func writeExpr(sb *strings.Builder, e Expr) {
	switch n := e.(type) {
	case *Binary:
		logical := n.Op == OpAnd || n.Op == OpOr
		if logical {
			sb.WriteByte('(')
		}
		writeExpr(sb, n.L)
		sb.WriteByte(' ')
		sb.WriteString(n.Op.String())
		sb.WriteByte(' ')
		writeExpr(sb, n.R)
		if logical {
			sb.WriteByte(')')
		}
	case *Unary:
		if n.Op == OpNot {
			sb.WriteString("not ")
		} else {
			sb.WriteByte('-')
		}
		writeExpr(sb, n.X)
	default:
		sb.WriteString(e.String())
	}
}
