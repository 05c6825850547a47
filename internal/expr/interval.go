package expr

import (
	"slices"
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
	// Guards are the comparisons between values of different origin that
	// decided the interval's shape — which of two bounds won an
	// intersection, whether the range is empty or a single point. The
	// origins rebind the interval for exactly the literal vectors under
	// which every guard keeps its sign.
	Guards []Guard
}

// Side is one operand of a guard: a constant (From zero) or the value a
// statement literal produced through From, Value being what it was for the
// literals the guard was recorded under.
type Side struct {
	Value types.Datum
	From  Origin
}

// at returns the side's value for the literal vector lits; ok is false for
// a value no Origin describes.
func (s Side) at(lits []types.Datum) (types.Datum, bool) {
	switch {
	case s.From.Slot == 0:
		return s.Value, true
	case s.From.Slot < 0:
		return types.Null, false
	}
	return s.From.Apply(lits, s.Value), true
}

// Guard records that a decision was taken on X.Compare(Y) == Sign. A plan
// built from such decisions is valid for the literal vectors under which
// every one of its guards holds (Chirkova & Genesereth: a reformulation is
// valid on exactly the instances that satisfy what it was derived from).
type Guard struct {
	X, Y Side
	Sign int8
}

// Opaque reports whether a side of g is a value no Origin describes: g
// cannot be checked for another literal vector.
func (g Guard) Opaque() bool { return g.X.From.Slot < 0 || g.Y.From.Slot < 0 }

// Holds reports whether the comparison keeps its sign under lits.
func (g Guard) Holds(lits []types.Datum) bool {
	x, okX := g.X.at(lits)
	y, okY := g.Y.at(lits)
	return okX && okY && int8(x.Compare(y)) == g.Sign
}

// Same reports whether g and o record the same comparison with the same
// outcome, whatever literals each was recorded under: equal origins, equal
// constants, equal sign.
func (g Guard) Same(o Guard) bool {
	side := func(a, b Side) bool {
		return a.From == b.From && (a.From.Slot != 0 || a.Value == b.Value)
	}
	return g.Sign == o.Sign && side(g.X, o.X) && side(g.Y, o.Y)
}

// AnyOpaque reports whether some guard of gs is Opaque.
func AnyOpaque(gs []Guard) bool {
	return slices.ContainsFunc(gs, Guard.Opaque)
}

// GuardsHold reports whether every guard holds under lits.
func GuardsHold(gs []Guard, lits []types.Datum) bool {
	for _, g := range gs {
		if !g.Holds(lits) {
			return false
		}
	}
	return true
}

// AppendGuards appends the guards of src that dst does not hold yet.
func AppendGuards(dst []Guard, src ...Guard) []Guard {
	for _, g := range src {
		if !slices.Contains(dst, g) {
			dst = append(dst, g)
		}
	}
	return dst
}

// FromLiteral reports whether any part of the interval depends on a
// statement literal.
func (iv Interval) FromLiteral() bool { return iv.Lit != nil }

// Guards returns the comparisons the interval's shape was decided on.
func (iv Interval) Guards() []Guard {
	if iv.Lit == nil {
		return nil
	}
	return iv.Lit.Guards
}

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

// Bind recomputes the literal-derived bounds for the literal vector lits,
// which must satisfy the interval's guards.
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

// mergeProvenance starts the provenance of an interval computed from a and
// b: nil when neither depends on a literal, otherwise both guard lists.
func mergeProvenance(a, b Interval) *Provenance {
	if a.Lit == nil && b.Lit == nil {
		return nil
	}
	return &Provenance{Guards: AppendGuards(slices.Clip(a.Guards()), b.Guards()...)}
}

// compared records that a decision was taken on c = x.Compare(y). Two
// catalog constants, or two images of the same literal (x+a against x+b),
// compare the same way for every literal vector; anything else becomes a
// guard.
func (p *Provenance) compared(x, y Side, c int) {
	if p != nil && x.From.Slot != y.From.Slot {
		p.Guards = AppendGuards(p.Guards, Guard{X: x, Y: y, Sign: int8(c)})
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
			iv.Lit.compared(Side{iv.Lo, iv.Lit.Lo}, Side{iv.Hi, iv.Lit.Hi}, c)
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
		c := iv.Lo.Compare(other.Lo)
		out.Lit.compared(Side{iv.Lo, ivLo}, Side{other.Lo, otherLo}, c)
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
		c := iv.Hi.Compare(other.Hi)
		out.Lit.compared(Side{iv.Hi, ivHi}, Side{other.Hi, otherHi}, c)
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
	return iv.coveredBy(outer, nil)
}

// Covered is CoveredBy for planning: it also returns the guards the answer
// was decided on — both intervals' own and the bound comparisons it made.
func (iv Interval) Covered(outer Interval) (bool, []Guard) {
	p := mergeProvenance(iv, outer)
	covered := iv.coveredBy(outer, p)
	if p == nil {
		return covered, nil
	}
	return covered, p.Guards
}

func (iv Interval) coveredBy(outer Interval, p *Provenance) bool {
	if iv.ExactEmpty {
		return true
	}
	if outer.ExactEmpty {
		return false
	}
	ivLo, ivHi := iv.Origins()
	outerLo, outerHi := outer.Origins()
	if outer.HasLo {
		if !iv.HasLo {
			return false
		}
		c := iv.Lo.Compare(outer.Lo)
		p.compared(Side{iv.Lo, ivLo}, Side{outer.Lo, outerLo}, c)
		if c < 0 || (c == 0 && iv.LoIncl && !outer.LoIncl) {
			return false
		}
	}
	if outer.HasHi {
		if !iv.HasHi {
			return false
		}
		c := iv.Hi.Compare(outer.Hi)
		p.compared(Side{iv.Hi, ivHi}, Side{outer.Hi, outerHi}, c)
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
	// intervals. None of those comparisons becomes a guard and the result
	// keeps no bound origins, so a caller that subtracts from a
	// literal-derived interval ties its plan to the literals (hole-trim
	// does).
	lit := mergeProvenance(iv, other)
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
			// The bound's value cannot be recomputed for other literals:
			// a guard that it keeps its value can never be checked.
			side := Side{Value: val, From: from}
			iv.Lit.Guards = AppendGuards(iv.Lit.Guards, Guard{X: side, Y: Side{Value: val}})
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
