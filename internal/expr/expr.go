// Package expr defines softdb's scalar expression trees and their
// evaluation under SQL three-valued logic. Expressions are built by the SQL
// parser, bound to column ordinals by the planner, evaluated by the
// executor, and analyzed (conjunct splitting, interval extraction,
// implication) by the rewrite engine and the statistics layer.
package expr

import (
	"fmt"
	"strings"

	"softdb/internal/types"
)

// Op enumerates binary and unary operators.
type Op uint8

const (
	// Arithmetic.
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	// Comparison.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// Boolean connectives.
	OpAnd
	OpOr
	// Unary.
	OpNot
	OpNeg
	OpIsNull
	OpIsNotNull
	// OpFloat is CAST(x AS FLOAT): a number, date or boolean widened to
	// FLOAT the way SUM and AVG widen their values.
	OpFloat
)

// String renders the operator in SQL spelling.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
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
		return "AND"
	case OpOr:
		return "OR"
	case OpNot:
		return "NOT"
	case OpNeg:
		return "-"
	case OpIsNull:
		return "IS NULL"
	case OpIsNotNull:
		return "IS NOT NULL"
	case OpFloat:
		return "CAST AS FLOAT"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// IsComparison reports whether o is one of =, <>, <, <=, >, >=.
func (o Op) IsComparison() bool { return o >= OpEq && o <= OpGe }

// Swap returns the comparison with operands exchanged: a < b ⇔ b > a.
func (o Op) Swap() Op {
	switch o {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return o
	}
}

// Negate returns the complement comparison under two-valued logic.
func (o Op) Negate() Op {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	default:
		return o
	}
}

// Expr is a scalar expression node.
type Expr interface {
	// Eval computes the expression over the given input row. Column nodes
	// index into the row by their bound ordinal.
	Eval(row types.Row) (types.Datum, error)
	// Type reports the best-effort static result kind.
	Type() types.Kind
	// String renders the expression in SQL-like syntax; it is canonical
	// enough to serve as an equivalence key for identical trees.
	String() string
}

// Column is a reference to an input column by ordinal. Name and Qualifier
// are retained for display and for late binding by the planner; Index is
// authoritative at evaluation time.
type Column struct {
	Qualifier string // table alias, may be empty
	Name      string
	Index     int // ordinal into the input row; -1 when unbound
	Kind      types.Kind
}

// NewColumn returns a bound column reference.
func NewColumn(qualifier, name string, index int, kind types.Kind) *Column {
	return &Column{Qualifier: qualifier, Name: name, Index: index, Kind: kind}
}

// Eval implements Expr.
func (c *Column) Eval(row types.Row) (types.Datum, error) {
	if c.Index < 0 || c.Index >= len(row) {
		return types.Null, fmt.Errorf("expr: unbound column %s (index %d, row arity %d)", c.Name, c.Index, len(row))
	}
	return row[c.Index], nil
}

// Type implements Expr.
func (c *Column) Type() types.Kind { return c.Kind }

// String implements Expr.
func (c *Column) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// Const is a literal value.
type Const struct {
	Value types.Datum
	// From ties the value to the statement literal it was computed from, so
	// a cached plan template can recompute it for another literal vector;
	// the zero Origin for constants that come from anywhere else.
	From Origin
}

// NewConst returns a literal node.
func NewConst(v types.Datum) *Const { return &Const{Value: v} }

// Eval implements Expr.
func (c *Const) Eval(types.Row) (types.Datum, error) { return c.Value, nil }

// Type implements Expr.
func (c *Const) Type() types.Kind { return c.Value.Kind() }

// String implements Expr.
func (c *Const) String() string { return c.Value.String() }

// Binary applies a binary operator.
type Binary struct {
	Op   Op
	L, R Expr
}

// NewBinary returns a binary node.
func NewBinary(op Op, l, r Expr) *Binary { return &Binary{Op: op, L: l, R: r} }

// Eq is shorthand for an equality comparison.
func Eq(l, r Expr) *Binary { return NewBinary(OpEq, l, r) }

// And conjoins the given predicates, returning TRUE for an empty list.
func And(preds ...Expr) Expr {
	var out Expr
	for _, p := range preds {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = NewBinary(OpAnd, out, p)
		}
	}
	if out == nil {
		return NewConst(types.NewBool(true))
	}
	return out
}

// Eval implements Expr with SQL three-valued logic for comparisons and
// connectives.
func (b *Binary) Eval(row types.Row) (types.Datum, error) {
	switch b.Op {
	case OpAnd, OpOr:
		return b.evalLogic(row)
	}
	l, err := b.L.Eval(row)
	if err != nil {
		return types.Null, err
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return types.Null, err
	}
	switch b.Op {
	case OpAdd:
		return l.Add(r)
	case OpSub:
		return l.Sub(r)
	case OpMul:
		return l.Mul(r)
	case OpDiv:
		return l.Div(r)
	}
	// Comparison: NULL operand yields NULL.
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	c := l.Compare(r)
	var res bool
	switch b.Op {
	case OpEq:
		res = c == 0
	case OpNe:
		res = c != 0
	case OpLt:
		res = c < 0
	case OpLe:
		res = c <= 0
	case OpGt:
		res = c > 0
	case OpGe:
		res = c >= 0
	default:
		return types.Null, fmt.Errorf("expr: unknown binary operator %s", b.Op)
	}
	return types.NewBool(res), nil
}

// asBool checks that a logic operand is boolean before the Bool() accessor
// touches it: a user query like "WHERE id AND x" must get a type error, not
// the accessor panic.
func asBool(v types.Datum) (bool, error) {
	if v.Kind() != types.KindBool {
		return false, fmt.Errorf("expr: %s value where boolean expected", v.Kind())
	}
	return v.Bool(), nil
}

// evalLogic implements Kleene AND/OR.
func (b *Binary) evalLogic(row types.Row) (types.Datum, error) {
	l, err := b.L.Eval(row)
	if err != nil {
		return types.Null, err
	}
	// Short circuit where the result is determined.
	if !l.IsNull() {
		lb, err := asBool(l)
		if err != nil {
			return types.Null, err
		}
		if b.Op == OpAnd && !lb {
			return types.NewBool(false), nil
		}
		if b.Op == OpOr && lb {
			return types.NewBool(true), nil
		}
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if r.IsNull() {
		return types.Null, nil
	}
	rb, err := asBool(r)
	if err != nil {
		return types.Null, err
	}
	if b.Op == OpAnd {
		if !rb {
			return types.NewBool(false), nil
		}
		if l.IsNull() {
			return types.Null, nil
		}
		return types.NewBool(true), nil
	}
	// OR
	if rb {
		return types.NewBool(true), nil
	}
	if l.IsNull() {
		return types.Null, nil
	}
	return types.NewBool(false), nil
}

// Type implements Expr.
func (b *Binary) Type() types.Kind {
	switch {
	case b.Op.IsComparison(), b.Op == OpAnd, b.Op == OpOr:
		return types.KindBool
	case b.L.Type() == types.KindFloat || b.R.Type() == types.KindFloat:
		return types.KindFloat
	case b.L.Type() == types.KindDate && (b.Op == OpAdd || b.Op == OpSub):
		if b.R.Type() == types.KindDate && b.Op == OpSub {
			return types.KindInt
		}
		return types.KindDate
	default:
		return b.L.Type()
	}
}

// String implements Expr.
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// Unary applies a unary operator (NOT, -, IS NULL, IS NOT NULL, CAST AS
// FLOAT).
type Unary struct {
	Op Op
	X  Expr
}

// NewUnary returns a unary node.
func NewUnary(op Op, x Expr) *Unary { return &Unary{Op: op, X: x} }

// Eval implements Expr.
func (u *Unary) Eval(row types.Row) (types.Datum, error) {
	v, err := u.X.Eval(row)
	if err != nil {
		return types.Null, err
	}
	switch u.Op {
	case OpNot:
		if v.IsNull() {
			return types.Null, nil
		}
		bv, err := asBool(v)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(!bv), nil
	case OpNeg:
		if v.IsNull() {
			return types.Null, nil
		}
		return types.NewInt(0).Sub(v)
	case OpIsNull:
		return types.NewBool(v.IsNull()), nil
	case OpIsNotNull:
		return types.NewBool(!v.IsNull()), nil
	case OpFloat:
		if v.IsNull() {
			return types.Null, nil
		}
		if !v.IsNumeric() && v.Kind() != types.KindBool {
			return types.Null, fmt.Errorf("expr: cannot cast %s to FLOAT", v.Kind())
		}
		return types.NewFloat(v.Float()), nil
	default:
		return types.Null, fmt.Errorf("expr: unknown unary operator %s", u.Op)
	}
}

// Type implements Expr.
func (u *Unary) Type() types.Kind {
	switch u.Op {
	case OpNeg:
		return u.X.Type()
	case OpFloat:
		return types.KindFloat
	default:
		return types.KindBool
	}
}

// String implements Expr.
func (u *Unary) String() string {
	switch u.Op {
	case OpIsNull, OpIsNotNull:
		return "(" + u.X.String() + " " + u.Op.String() + ")"
	case OpFloat:
		return "CAST(" + u.X.String() + " AS FLOAT)"
	default:
		return "(" + u.Op.String() + " " + u.X.String() + ")"
	}
}

// InList is `X IN (v1, v2, ...)`.
type InList struct {
	X    Expr
	List []Expr
}

// NewInList returns an IN-list node.
func NewInList(x Expr, list []Expr) *InList { return &InList{X: x, List: list} }

// Eval implements Expr: NULL if x is NULL or no match and a NULL appears.
func (in *InList) Eval(row types.Row) (types.Datum, error) {
	x, err := in.X.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if x.IsNull() {
		return types.Null, nil
	}
	sawNull := false
	for _, e := range in.List {
		v, err := e.Eval(row)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if x.Compare(v) == 0 {
			return types.NewBool(true), nil
		}
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(false), nil
}

// Type implements Expr.
func (in *InList) Type() types.Kind { return types.KindBool }

// String implements Expr.
func (in *InList) String() string {
	var b strings.Builder
	b.WriteString("(")
	b.WriteString(in.X.String())
	b.WriteString(" IN (")
	for i, e := range in.List {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteString("))")
	return b.String()
}

// EvalBool evaluates a predicate and reports whether it is TRUE (NULL and
// FALSE both reject, per SQL WHERE semantics).
func EvalBool(e Expr, row types.Row) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != types.KindBool {
		return false, fmt.Errorf("expr: predicate %s evaluated to %s, not BOOL", e, v.Kind())
	}
	return v.Bool(), nil
}
