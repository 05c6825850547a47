package expr

import (
	"strconv"
	"strings"

	"softdb/internal/types"
)

// Interval is a (possibly half-open, possibly unbounded) range of datum
// values over one column. It is the common currency of index access-path
// selection, union-all branch pruning, check-constraint implication, and
// join-hole trimming.
type Interval struct {
	HasLo, HasHi     bool
	Lo, Hi           types.Datum
	LoIncl, HiIncl   bool
	ExactEmpty       bool         // a contradiction was detected (e.g. x=1 AND x=2)
	EqualityConstant *types.Datum // set when the interval pins a single value
	// Lit ties the bounds to the statement literals they were computed
	// from; nil when no bound depends on one (every interval built from
	// catalog objects or page synopses).
	Lit *Provenance
}

// Provenance is an interval's dependence on the statement's literals.
type Provenance struct {
	// Lo and Hi are the bounds' origins (zero: the bound is not
	// literal-derived).
	Lo, Hi Origin
	// Shaped reports that the interval's shape — which of two bounds won
	// an intersection, whether the range is empty or a single point — was
	// decided by comparing values of different provenance. Another literal
	// vector can give it a different shape, so the origins alone cannot
	// rebind it, and a rule that used it has tied the plan to the literals.
	Shaped bool
}

// FromLiteral reports whether any part of the interval depends on a
// statement literal.
func (iv Interval) FromLiteral() bool { return iv.Lit != nil }

// LiteralShaped reports whether the interval's shape (not just its bound
// values) depends on the statement's literals; see Provenance.Shaped.
func (iv Interval) LiteralShaped() bool { return iv.Lit != nil && iv.Lit.Shaped }

// Plain returns the interval without its literal provenance. Planning
// needs the provenance; code that evaluates the interval against data (page
// synopses, predicate kernels) takes the plain form, whose operations
// neither track nor allocate anything for it.
func (iv Interval) Plain() Interval {
	iv.Lit = nil
	return iv
}

// Origins returns the bounds' origins.
func (iv Interval) Origins() (lo, hi Origin) {
	if iv.Lit == nil {
		return Origin{}, Origin{}
	}
	return iv.Lit.Lo, iv.Lit.Hi
}

// WithOrigins returns the interval with its bounds attributed to lo and hi.
func (iv Interval) WithOrigins(lo, hi Origin) Interval {
	if lo.Slot == 0 && hi.Slot == 0 {
		return iv
	}
	iv.Lit = &Provenance{Lo: lo, Hi: hi}
	return iv
}

// Bind recomputes the literal-derived bounds for the literal vector lits.
// The interval must not be LiteralShaped.
func (iv Interval) Bind(lits []types.Datum) Interval {
	if iv.Lit == nil {
		return iv
	}
	if o := iv.Lit.Lo; o.Slot > 0 && iv.HasLo {
		iv.Lo = o.Apply(lits, iv.Lo)
	}
	if o := iv.Lit.Hi; o.Slot > 0 && iv.HasHi {
		iv.Hi = o.Apply(lits, iv.Hi)
	}
	if iv.EqualityConstant != nil {
		v := iv.Lo
		iv.EqualityConstant = &v
	}
	return iv
}

// ComparesFixed reports whether comparing a's bounds with b's (coverage,
// disjointness) comes out the same for every literal vector: no bound on
// either side depends on a literal, or all that do are images of one and
// the same literal while none is a catalog constant.
func ComparesFixed(a, b Interval) bool {
	if a.Lit == nil && b.Lit == nil {
		return true
	}
	if a.LiteralShaped() || b.LiteralShaped() {
		return false
	}
	slot, first := 0, true
	for _, iv := range [2]Interval{a, b} {
		lo, hi := iv.Origins()
		for _, bound := range [2]struct {
			has  bool
			from Origin
		}{{iv.HasLo, lo}, {iv.HasHi, hi}} {
			if !bound.has {
				continue
			}
			if first {
				slot, first = bound.from.Slot, false
			} else if bound.from.Slot != slot {
				return false
			}
		}
	}
	return true
}

// mergeProvenance starts the provenance of an interval computed from a and
// b: nil when neither depends on a literal.
func mergeProvenance(a, b Interval) *Provenance {
	if a.Lit == nil && b.Lit == nil {
		return nil
	}
	return &Provenance{Shaped: a.LiteralShaped() || b.LiteralShaped()}
}

// compared notes that a decision was taken by comparing a bound of origin x
// with one of origin y. Two catalog constants, or two images of the same
// literal (x+a against x+b), compare the same way for every literal
// vector; anything else ties the outcome to the literals' values.
func (p *Provenance) compared(x, y Origin) {
	if p != nil && x.Slot != y.Slot {
		p.Shaped = true
	}
}

// Unbounded returns the interval covering everything.
func Unbounded() Interval { return Interval{} }

// Point returns the interval holding exactly v.
func Point(v types.Datum) Interval {
	return Interval{HasLo: true, HasHi: true, Lo: v, Hi: v, LoIncl: true, HiIncl: true, EqualityConstant: &v}
}

// AtLeast returns [v, +inf) or (v, +inf).
func AtLeast(v types.Datum, incl bool) Interval {
	return Interval{HasLo: true, Lo: v, LoIncl: incl}
}

// AtMost returns (-inf, v] or (-inf, v).
func AtMost(v types.Datum, incl bool) Interval {
	return Interval{HasHi: true, Hi: v, HiIncl: incl}
}

// Between returns the closed/open range [lo, hi] per the inclusivity flags.
func Between(lo, hi types.Datum, loIncl, hiIncl bool) Interval {
	iv := Interval{HasLo: true, HasHi: true, Lo: lo, Hi: hi, LoIncl: loIncl, HiIncl: hiIncl}
	iv.normalize()
	return iv
}

func (iv *Interval) normalize() {
	if iv.HasLo && iv.HasHi {
		c := iv.Lo.Compare(iv.Hi)
		if iv.Lit != nil {
			iv.Lit.compared(iv.Lit.Lo, iv.Lit.Hi)
		}
		if c > 0 || (c == 0 && (!iv.LoIncl || !iv.HiIncl)) {
			iv.ExactEmpty = true
			return
		}
		if c == 0 {
			v := iv.Lo
			iv.EqualityConstant = &v
		}
	}
}

// IsUnbounded reports whether the interval has no bounds at all.
func (iv Interval) IsUnbounded() bool { return !iv.HasLo && !iv.HasHi && !iv.ExactEmpty }

// Empty reports whether the interval provably contains no value.
func (iv Interval) Empty() bool { return iv.ExactEmpty }

// Contains reports whether v lies inside the interval. NULL is outside all
// intervals.
func (iv Interval) Contains(v types.Datum) bool {
	if iv.ExactEmpty || v.IsNull() {
		return false
	}
	if iv.HasLo {
		c := v.Compare(iv.Lo)
		if c < 0 || (c == 0 && !iv.LoIncl) {
			return false
		}
	}
	if iv.HasHi {
		c := v.Compare(iv.Hi)
		if c > 0 || (c == 0 && !iv.HiIncl) {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(other Interval) Interval {
	if iv.ExactEmpty || other.ExactEmpty {
		return Interval{ExactEmpty: true, Lit: mergeProvenance(iv, other)}
	}
	out := Interval{Lit: mergeProvenance(iv, other)}
	var ivLo, ivHi, otherLo, otherHi, lo, hi Origin
	if out.Lit != nil {
		ivLo, ivHi = iv.Origins()
		otherLo, otherHi = other.Origins()
	}
	switch {
	case !iv.HasLo:
		out.HasLo, out.Lo, out.LoIncl, lo = other.HasLo, other.Lo, other.LoIncl, otherLo
	case !other.HasLo:
		out.HasLo, out.Lo, out.LoIncl, lo = iv.HasLo, iv.Lo, iv.LoIncl, ivLo
	default:
		out.HasLo = true
		out.Lit.compared(ivLo, otherLo)
		c := iv.Lo.Compare(other.Lo)
		switch {
		case c > 0:
			out.Lo, out.LoIncl, lo = iv.Lo, iv.LoIncl, ivLo
		case c < 0:
			out.Lo, out.LoIncl, lo = other.Lo, other.LoIncl, otherLo
		default:
			out.Lo, out.LoIncl, lo = iv.Lo, iv.LoIncl && other.LoIncl, ivLo
		}
	}
	switch {
	case !iv.HasHi:
		out.HasHi, out.Hi, out.HiIncl, hi = other.HasHi, other.Hi, other.HiIncl, otherHi
	case !other.HasHi:
		out.HasHi, out.Hi, out.HiIncl, hi = iv.HasHi, iv.Hi, iv.HiIncl, ivHi
	default:
		out.HasHi = true
		out.Lit.compared(ivHi, otherHi)
		c := iv.Hi.Compare(other.Hi)
		switch {
		case c < 0:
			out.Hi, out.HiIncl, hi = iv.Hi, iv.HiIncl, ivHi
		case c > 0:
			out.Hi, out.HiIncl, hi = other.Hi, other.HiIncl, otherHi
		default:
			out.Hi, out.HiIncl, hi = iv.Hi, iv.HiIncl && other.HiIncl, ivHi
		}
	}
	if out.Lit != nil {
		out.Lit.Lo, out.Lit.Hi = lo, hi
	}
	out.normalize()
	return out
}

// Disjoint reports whether two intervals provably share no value.
func (iv Interval) Disjoint(other Interval) bool {
	return iv.Intersect(other).Empty()
}

// CoveredBy reports whether every value in iv lies inside outer.
func (iv Interval) CoveredBy(outer Interval) bool {
	if iv.ExactEmpty {
		return true
	}
	if outer.ExactEmpty {
		return false
	}
	if outer.HasLo {
		if !iv.HasLo {
			return false
		}
		c := iv.Lo.Compare(outer.Lo)
		if c < 0 || (c == 0 && iv.LoIncl && !outer.LoIncl) {
			return false
		}
	}
	if outer.HasHi {
		if !iv.HasHi {
			return false
		}
		c := iv.Hi.Compare(outer.Hi)
		if c > 0 || (c == 0 && iv.HiIncl && !outer.HiIncl) {
			return false
		}
	}
	return true
}

// Subtract removes other from iv when the result is still a single
// interval: other must cover one end of iv (or all of it, or none). The
// second return is false when the subtraction would split iv in two.
func (iv Interval) Subtract(other Interval) (Interval, bool) {
	// Every outcome below is picked by comparing bounds of the two
	// intervals, so a literal-derived operand makes the result's shape
	// literal-dependent.
	lit := mergeProvenance(iv, other)
	if lit != nil {
		lit.Shaped = true
	}
	iv.Lit = lit
	x := iv.Intersect(other)
	if x.Empty() {
		return iv, true // disjoint: nothing removed
	}
	if iv.CoveredBy(other) {
		return Interval{ExactEmpty: true, Lit: lit}, true
	}
	coversLow := true
	if other.HasLo {
		if !iv.HasLo {
			coversLow = false
		} else {
			c := other.Lo.Compare(iv.Lo)
			coversLow = c < 0 || (c == 0 && (other.LoIncl || !iv.LoIncl))
		}
	}
	coversHigh := true
	if other.HasHi {
		if !iv.HasHi {
			coversHigh = false
		} else {
			c := other.Hi.Compare(iv.Hi)
			coversHigh = c > 0 || (c == 0 && (other.HiIncl || !iv.HiIncl))
		}
	}
	switch {
	case coversLow && other.HasHi:
		// Trim the low end: new lower bound is other's upper bound,
		// exclusive where other includes it.
		out := iv
		out.HasLo, out.Lo, out.LoIncl = true, other.Hi, !other.HiIncl
		out.EqualityConstant = nil
		out.normalize()
		return out, true
	case coversHigh && other.HasLo:
		out := iv
		out.HasHi, out.Hi, out.HiIncl = true, other.Lo, !other.LoIncl
		out.EqualityConstant = nil
		out.normalize()
		return out, true
	default:
		return iv, false // would split
	}
}

// String renders the interval in math notation.
func (iv Interval) String() string {
	if iv.ExactEmpty {
		return "∅"
	}
	var b strings.Builder
	if iv.HasLo {
		if iv.LoIncl {
			b.WriteByte('[')
		} else {
			b.WriteByte('(')
		}
		b.WriteString(iv.Lo.String())
	} else {
		b.WriteString("(-inf")
	}
	b.WriteString(", ")
	if iv.HasHi {
		b.WriteString(iv.Hi.String())
		if iv.HiIncl {
			b.WriteByte(']')
		} else {
			b.WriteByte(')')
		}
	} else {
		b.WriteString("+inf)")
	}
	return b.String()
}

// comparisonOnColumn decomposes e as `col <op> const` (possibly written as
// `const <op> col`), returning the column, the normalized operator with the
// column on the left, and the constant value.
func comparisonOnColumn(e Expr) (col *Column, op Op, val types.Datum, ok bool) {
	col, op, val, _, ok = comparisonOnColumnFrom(e)
	return col, op, val, ok
}

// unknownOrigin marks a value that depends on statement literals in a way
// no Origin describes (an unfolded constant expression over a literal):
// every comparison against it is literal-dependent.
var unknownOrigin = Origin{Slot: -1}

// comparisonOnColumnFrom is comparisonOnColumn plus the constant's origin.
func comparisonOnColumnFrom(e Expr) (col *Column, op Op, val types.Datum, from Origin, ok bool) {
	b, isBin := e.(*Binary)
	if !isBin || !b.Op.IsComparison() {
		return nil, 0, types.Null, Origin{}, false
	}
	lcol, lIsCol := b.L.(*Column)
	rcol, rIsCol := b.R.(*Column)
	lval, lErr := constValue(b.L)
	rval, rErr := constValue(b.R)
	switch {
	case lIsCol && rErr == nil:
		return lcol, b.Op, rval, originOf(b.R), true
	case rIsCol && lErr == nil:
		return rcol, b.Op.Swap(), lval, originOf(b.L), true
	default:
		return nil, 0, types.Null, Origin{}, false
	}
}

// originOf returns the origin of a constant operand.
func originOf(e Expr) Origin {
	if c, ok := e.(*Const); ok {
		return c.From
	}
	if HasLiteral(e) {
		return unknownOrigin
	}
	return Origin{}
}

// constValue evaluates e if it contains no column references.
func constValue(e Expr) (types.Datum, error) {
	if c, ok := e.(*Const); ok {
		return c.Value, nil
	}
	if !isConstTree(e) {
		return types.Null, errNotConst
	}
	return e.Eval(nil)
}

var errNotConst = &notConstError{}

type notConstError struct{}

func (*notConstError) Error() string { return "expr: not a constant" }

// DecomposeComparison splits a comparison into its non-constant side
// (normalized to the left), the operator, and the constant value. It
// returns ok=false when e is not a comparison or both sides contain
// columns.
func DecomposeComparison(e Expr) (lhs Expr, op Op, val types.Datum, ok bool) {
	b, isBin := e.(*Binary)
	if !isBin || !b.Op.IsComparison() {
		return nil, 0, types.Null, false
	}
	lval, lErr := constValue(b.L)
	rval, rErr := constValue(b.R)
	switch {
	case lErr != nil && rErr == nil:
		return b.L, b.Op, rval, true
	case rErr != nil && lErr == nil:
		return b.R, b.Op.Swap(), lval, true
	default:
		return nil, 0, types.Null, false
	}
}

// IntervalForOp converts one normalized comparison into an interval.
func IntervalForOp(op Op, val types.Datum) (Interval, bool) {
	if val.IsNull() {
		return Interval{ExactEmpty: true}, true
	}
	switch op {
	case OpEq:
		return Point(val), true
	case OpLt:
		return AtMost(val, false), true
	case OpLe:
		return AtMost(val, true), true
	case OpGt:
		return AtLeast(val, false), true
	case OpGe:
		return AtLeast(val, true), true
	default:
		return Interval{}, false
	}
}

// Canonical renders e with column references replaced by their ordinals
// ($i), giving an alias-insensitive equivalence key for expression
// matching (virtual columns, predicate dedup across bindings).
func Canonical(e Expr) string {
	return Transform(e, func(n Expr) Expr {
		if c, ok := n.(*Column); ok {
			return &Column{Name: "$" + strconv.Itoa(c.Index), Index: c.Index, Kind: c.Kind}
		}
		return n
	}).String()
}

// ExtractInterval folds every conjunct of the form `col <op> const` over
// the column with the given ordinal into a single interval, and returns the
// remaining conjuncts it could not absorb. Comparisons against NULL
// constants produce the empty interval (they can never be TRUE).
func ExtractInterval(conjuncts []Expr, colIndex int) (Interval, []Expr) {
	iv := Unbounded()
	var rest []Expr
	for _, c := range conjuncts {
		col, op, val, from, ok := comparisonOnColumnFrom(c)
		if !ok || col.Index != colIndex || op == OpNe {
			rest = append(rest, c)
			continue
		}
		if val.IsNull() {
			return Interval{ExactEmpty: true}, rest
		}
		switch op {
		case OpEq:
			iv = iv.Intersect(Point(val).WithOrigins(from, from))
		case OpLt:
			iv = iv.Intersect(AtMost(val, false).WithOrigins(Origin{}, from))
		case OpLe:
			iv = iv.Intersect(AtMost(val, true).WithOrigins(Origin{}, from))
		case OpGt:
			iv = iv.Intersect(AtLeast(val, false).WithOrigins(from, Origin{}))
		case OpGe:
			iv = iv.Intersect(AtLeast(val, true).WithOrigins(from, Origin{}))
		}
		if from == unknownOrigin {
			iv.Lit.Shaped = true
		}
	}
	return iv, rest
}

// IntervalToPredicate renders an interval back into a conjunction of
// comparisons over the given column expression. An unbounded interval
// yields nil; an empty interval yields constant FALSE.
func IntervalToPredicate(col *Column, iv Interval) Expr {
	if iv.ExactEmpty {
		return NewConst(types.NewBool(false))
	}
	lo, hi := iv.Origins()
	if iv.EqualityConstant != nil {
		return NewBinary(OpEq, col, &Const{Value: *iv.EqualityConstant, From: lo})
	}
	var parts []Expr
	if iv.HasLo {
		op := OpGt
		if iv.LoIncl {
			op = OpGe
		}
		parts = append(parts, NewBinary(op, col, &Const{Value: iv.Lo, From: lo}))
	}
	if iv.HasHi {
		op := OpLt
		if iv.HiIncl {
			op = OpLe
		}
		parts = append(parts, NewBinary(op, col, &Const{Value: iv.Hi, From: hi}))
	}
	if len(parts) == 0 {
		return nil
	}
	return And(parts...)
}
