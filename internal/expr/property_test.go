package expr

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"graql/internal/value"
)

// The soundness contract of static typing (DESIGN.md §14): inference is
// never wrong, only possibly incomplete. Concretely, over a randomized
// corpus of expression trees against a typed row:
//
//  1. an expression that passes Check never fails Eval with a
//     *value.TypeError (runtime type errors are exactly the class the
//     GQL04xx static pass promises to catch ahead of time), and
//  2. when Check infers a concrete kind and Eval produces a non-null
//     value, the kinds agree. Null results are exempt: SQL three-valued
//     arithmetic collapses typed nulls to a float-kinded null.

// propEnv is a one-row environment: column i of source 0 has propTypes[i]
// and the value propRow[i].
type propEnv struct{}

var propTypes = []value.Type{
	value.Int, value.Float, value.Bool, value.Varchar(16), value.Date,
	value.Int, value.Float, value.Bool, value.Varchar(16), value.Date, // null columns
}

var propRow = []value.Value{
	value.NewInt(42), value.NewFloat(2.5), value.NewBool(true),
	value.NewString("graql"), value.NewDate(19700),
	value.NewNull(value.KindInt), value.NewNull(value.KindFloat),
	value.NewNull(value.KindBool), value.NewNull(value.KindString),
	value.NewNull(value.KindDate),
}

func (propEnv) Lookup(source, col int) value.Value { return propRow[col] }
func (propEnv) TypeOf(source, col int) value.Type  { return propTypes[col] }

// genExpr builds a random expression tree of the given depth. Leaves are
// constants (any kind, sometimes null) and column references; inner nodes
// draw uniformly from every operator, so ill-typed trees are common —
// those must be rejected by Check, not survive to a runtime type error.
func genExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			col := r.Intn(len(propTypes))
			ref := NewRef("t", "c")
			ref.Source, ref.Col = 0, col
			return ref
		}
		return NewConst(genConst(r))
	}
	switch r.Intn(8) {
	case 0:
		return &Unary{Op: OpNot, X: genExpr(r, depth-1)}
	case 1:
		return &Unary{Op: OpNeg, X: genExpr(r, depth-1)}
	default:
		ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr, OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return NewBinary(ops[r.Intn(len(ops))], genExpr(r, depth-1), genExpr(r, depth-1))
	}
}

func genConst(r *rand.Rand) value.Value {
	kinds := []value.Kind{value.KindInt, value.KindFloat, value.KindBool, value.KindString, value.KindDate}
	k := kinds[r.Intn(len(kinds))]
	if r.Intn(5) == 0 {
		return value.NewNull(k)
	}
	switch k {
	case value.KindInt:
		return value.NewInt(int64(r.Intn(7)) - 3) // small ints: zero divisors happen
	case value.KindFloat:
		return value.NewFloat(float64(r.Intn(7))/2 - 1)
	case value.KindBool:
		return value.NewBool(r.Intn(2) == 0)
	case value.KindString:
		return value.NewString([]string{"", "a", "graql"}[r.Intn(3)])
	default:
		return value.NewDate(int64(r.Intn(1000)))
	}
}

func TestCheckedExprNeverTypeErrors(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	env := propEnv{}
	checked, evaled := 0, 0
	for i := 0; i < 20000; i++ {
		e := genExpr(r, 4)
		typ, err := e.Check(env)
		if err != nil {
			continue // statically rejected: out of scope for the property
		}
		checked++
		v, err := e.Eval(env)
		if err != nil {
			var te *value.TypeError
			if errors.As(err, &te) {
				t.Fatalf("tree #%d %s: passed Check (%s) but Eval type-errored: %v", i, e, typ, err)
			}
			continue // division by zero etc.: legal runtime errors
		}
		evaled++
		if v.IsNull() || typ.Kind == value.KindInvalid {
			continue
		}
		if v.Kind() != typ.Kind {
			t.Fatalf("tree #%d %s: Check inferred %s but Eval returned kind %s", i, e, typ.Kind, v.Kind())
		}
		if got := StaticType(e); got.Kind != value.KindInvalid && got.Kind != typ.Kind {
			t.Fatalf("tree #%d %s: StaticType annotation %s disagrees with Check result %s", i, e, got.Kind, typ.Kind)
		}
	}
	// The corpus must actually exercise the property: a generator drifting
	// towards all-ill-typed trees would pass vacuously.
	if checked < 1000 || evaled < 500 {
		t.Fatalf("corpus too thin: %d trees checked, %d evaluated", checked, evaled)
	}
}

// sprintfString is the per-node fmt.Sprintf rendering String replaced;
// rendering into one builder must stay byte-identical to it.
func sprintfString(e Expr) string {
	switch n := e.(type) {
	case *Binary:
		if n.Op == OpAnd || n.Op == OpOr {
			return fmt.Sprintf("(%s %s %s)", sprintfString(n.L), n.Op, sprintfString(n.R))
		}
		return fmt.Sprintf("%s %s %s", sprintfString(n.L), n.Op, sprintfString(n.R))
	case *Unary:
		if n.Op == OpNot {
			return "not " + sprintfString(n.X)
		}
		return "-" + sprintfString(n.X)
	}
	return e.String()
}

func TestStringMatchesPerNodeRendering(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		e := genExpr(r, 6)
		if got, want := e.String(), sprintfString(e); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
	// A long left-deep and-chain, the shape of generated guard clauses.
	var chain Expr = NewConst(value.NewBool(true))
	for i := 0; i < 200; i++ {
		chain = NewBinary(OpAnd, chain, NewBinary(OpNe, NewConst(value.NewString("a'b")), &Param{Name: fmt.Sprint("P", i)}))
	}
	if got, want := chain.String(), sprintfString(chain); got != want {
		t.Fatalf("and-chain rendering differs:\n%s\n%s", got, want)
	}
}
