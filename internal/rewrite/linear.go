// Package rewrite implements softdb's semantic query optimization: the
// constraint-driven plan transformations the paper describes. Rules include
// predicate introduction from check constraints and mined linear
// correlations ([10], §3.3), the §4.4 exception-union rewrite over ASTs,
// §5's union-all branch elimination, join elimination over referential
// integrity ([6]), §2 [8]'s join-hole range trimming, FD-based ORDER BY /
// GROUP BY simplification ([29]), and §5.1's twinned estimation-only
// predicates for SSCs.
package rewrite

import (
	"fmt"
	"math"
	"sort"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/types"
)

func sortInts(s []int) { sort.Ints(s) }

// LinearForm is a linear combination of column ordinals plus a constant:
// sum(Coeffs[i] * col_i) + Const. It is the normal form constraint
// predicates are analyzed in.
type LinearForm struct {
	Coeffs map[int]float64
	Const  float64
}

func (f LinearForm) clone() LinearForm {
	c := LinearForm{Coeffs: make(map[int]float64, len(f.Coeffs)), Const: f.Const}
	for k, v := range f.Coeffs {
		c.Coeffs[k] = v
	}
	return c
}

func (f *LinearForm) addScaled(o LinearForm, scale float64) {
	for k, v := range o.Coeffs {
		f.Coeffs[k] += v * scale
		if f.Coeffs[k] == 0 {
			delete(f.Coeffs, k)
		}
	}
	f.Const += o.Const * scale
}

// ExtractLinearForm decomposes e into a linear form over column ordinals.
// It supports +, -, unary -, and multiplication/division by constants;
// anything else fails.
func ExtractLinearForm(e expr.Expr) (LinearForm, bool) {
	switch n := e.(type) {
	case *expr.Const:
		if !n.Value.IsNumeric() {
			return LinearForm{}, false
		}
		return LinearForm{Coeffs: map[int]float64{}, Const: n.Value.Float()}, true
	case *expr.Column:
		return LinearForm{Coeffs: map[int]float64{n.Index: 1}}, true
	case *expr.Unary:
		if n.Op != expr.OpNeg {
			return LinearForm{}, false
		}
		f, ok := ExtractLinearForm(n.X)
		if !ok {
			return LinearForm{}, false
		}
		out := LinearForm{Coeffs: map[int]float64{}}
		out.addScaled(f, -1)
		return out, true
	case *expr.Binary:
		switch n.Op {
		case expr.OpAdd, expr.OpSub:
			l, ok := ExtractLinearForm(n.L)
			if !ok {
				return LinearForm{}, false
			}
			r, ok := ExtractLinearForm(n.R)
			if !ok {
				return LinearForm{}, false
			}
			out := l.clone()
			if out.Coeffs == nil {
				out.Coeffs = map[int]float64{}
			}
			scale := 1.0
			if n.Op == expr.OpSub {
				scale = -1
			}
			out.addScaled(r, scale)
			return out, true
		case expr.OpMul:
			l, lok := ExtractLinearForm(n.L)
			r, rok := ExtractLinearForm(n.R)
			if !lok || !rok {
				return LinearForm{}, false
			}
			switch {
			case len(l.Coeffs) == 0:
				out := LinearForm{Coeffs: map[int]float64{}}
				out.addScaled(r, l.Const)
				return out, true
			case len(r.Coeffs) == 0:
				out := LinearForm{Coeffs: map[int]float64{}}
				out.addScaled(l, r.Const)
				return out, true
			default:
				return LinearForm{}, false
			}
		case expr.OpDiv:
			l, lok := ExtractLinearForm(n.L)
			r, rok := ExtractLinearForm(n.R)
			if !lok || !rok || len(r.Coeffs) != 0 || r.Const == 0 {
				return LinearForm{}, false
			}
			out := LinearForm{Coeffs: map[int]float64{}}
			out.addScaled(l, 1/r.Const)
			return out, true
		}
	}
	return LinearForm{}, false
}

// LinearBound is a normalized constraint statement over one table:
//
//	Lo <= colA - K*colB <= Hi        (two-column form, ColB >= 0)
//	Lo <= colA          <= Hi        (single-column form, ColB < 0)
//
// with the given Confidence (1 for ASCs/ICs). All predicate-introduction and
// branch-pruning rules work from this normal form; both check constraints
// and mined linear correlations lower into it.
type LinearBound struct {
	ColA       int
	ColB       int // -1 for single-column bounds
	K          float64
	Lo, Hi     float64 // ±Inf when unbounded
	Confidence float64
	Mode       catalog.Mode
	Source     string // constraint or correlation name
}

// singleColumn reports whether the bound constrains one column only.
func (lb LinearBound) singleColumn() bool { return lb.ColB < 0 }

// String renders the bound.
func (lb LinearBound) String() string {
	if lb.singleColumn() {
		return fmt.Sprintf("%s: col%d in [%g, %g] @%.3f", lb.Source, lb.ColA, lb.Lo, lb.Hi, lb.Confidence)
	}
	return fmt.Sprintf("%s: col%d - %g*col%d in [%g, %g] @%.3f", lb.Source, lb.ColA, lb.K, lb.ColB, lb.Lo, lb.Hi, lb.Confidence)
}

// boundsFromCheck lowers a check constraint's conjuncts into linear bounds.
// Each conjunct of a supported shape yields one bound; unsupported
// conjuncts are skipped (the constraint is then only partially exploited,
// which is safe).
func boundsFromCheck(con *catalog.Constraint) []LinearBound {
	if con.CheckExpr == nil || !con.Active {
		return nil
	}
	var out []LinearBound
	for _, c := range expr.SplitConjuncts(con.CheckExpr) {
		b, ok := boundFromComparison(c)
		if !ok {
			continue
		}
		b.Confidence = con.Confidence
		b.Mode = con.Mode
		b.Source = con.Name
		out = append(out, b)
	}
	return out
}

// boundFromComparison normalizes a single comparison into a LinearBound.
func boundFromComparison(e expr.Expr) (LinearBound, bool) {
	b, ok := e.(*expr.Binary)
	if !ok || !b.Op.IsComparison() || b.Op == expr.OpNe {
		return LinearBound{}, false
	}
	l, lok := ExtractLinearForm(b.L)
	if !lok {
		return LinearBound{}, false
	}
	r, rok := ExtractLinearForm(b.R)
	if !rok {
		return LinearBound{}, false
	}
	// Move everything left: form op 0.
	form := l.clone()
	if form.Coeffs == nil {
		form.Coeffs = map[int]float64{}
	}
	form.addScaled(r, -1)
	cols := make([]int, 0, len(form.Coeffs))
	for k := range form.Coeffs {
		cols = append(cols, k)
	}
	if len(cols) == 0 || len(cols) > 2 {
		return LinearBound{}, false
	}
	sortInts(cols)
	// Normalize on A = the lowest-ordinal column; sign handling below makes
	// the choice arbitrary.
	a := cols[0]
	ca := form.Coeffs[a]
	if ca == 0 {
		return LinearBound{}, false
	}
	// Normalize: divide by ca so A's coefficient is 1; flip op if ca < 0.
	op := b.Op
	if ca < 0 {
		op = op.Swap()
	}
	constTerm := form.Const / ca
	lb := LinearBound{ColA: a, ColB: -1, Lo: math.Inf(-1), Hi: math.Inf(1)}
	if len(cols) == 2 {
		other := cols[0]
		if other == a {
			other = cols[1]
		}
		lb.ColB = other
		lb.K = -form.Coeffs[other] / ca
	}
	// Now: colA - K*colB + constTerm op 0, i.e. (colA - K*colB) op -constTerm.
	bound := -constTerm
	switch op {
	case expr.OpEq:
		lb.Lo, lb.Hi = bound, bound
	case expr.OpLe, expr.OpLt:
		lb.Hi = bound
	case expr.OpGe, expr.OpGt:
		lb.Lo = bound
	default:
		return LinearBound{}, false
	}
	return lb, true
}

// boundFromCorrelation lowers a mined linear correlation (A = K*B + B0 ± Eps)
// into a LinearBound: A - K*B ∈ [B0-Eps, B0+Eps].
func boundFromCorrelation(lc *catalog.LinearCorrelation, aOrd, bOrd int) LinearBound {
	return LinearBound{
		ColA:       aOrd,
		ColB:       bOrd,
		K:          lc.K,
		Lo:         lc.B0 - lc.Eps,
		Hi:         lc.B0 + lc.Eps,
		Confidence: lc.Confidence,
		Mode:       catalog.ModeSoftAbsolute,
		Source:     lc.Name,
	}
}

// floatInterval is an interval over float64 used during derivation.
type floatInterval struct {
	lo, hi float64 // ±Inf when unbounded
}

func toFloatInterval(iv expr.Interval) (floatInterval, bool) {
	out := floatInterval{lo: math.Inf(-1), hi: math.Inf(1)}
	if iv.Empty() {
		return out, false
	}
	if iv.HasLo {
		if !iv.Lo.IsNumeric() {
			return out, false
		}
		out.lo = iv.Lo.Float()
	}
	if iv.HasHi {
		if !iv.Hi.IsNumeric() {
			return out, false
		}
		out.hi = iv.Hi.Float()
	}
	return out, true
}

// deriveOther computes the implied interval on the *other* column of lb
// given a filter interval on one column. known names which column the
// filter is on. Returns false when nothing is implied.
func (lb LinearBound) deriveOther(known int, iv floatInterval) (floatInterval, bool) {
	if lb.singleColumn() {
		return floatInterval{}, false
	}
	switch known {
	case lb.ColB:
		// A ∈ [K*b + Lo, K*b + Hi] over b in iv.
		klo, khi := scaleInterval(lb.K, iv)
		return floatInterval{lo: klo + lb.Lo, hi: khi + lb.Hi}, true
	case lb.ColA:
		// K*B ∈ [a - Hi, a - Lo] over a in iv; then divide by K.
		num := floatInterval{lo: iv.lo - lb.Hi, hi: iv.hi - lb.Lo}
		if lb.K == 0 {
			return floatInterval{}, false
		}
		lo, hi := num.lo/lb.K, num.hi/lb.K
		if lb.K < 0 {
			lo, hi = hi, lo
		}
		return floatInterval{lo: lo, hi: hi}, true
	default:
		return floatInterval{}, false
	}
}

// scaleInterval returns [k*lo, k*hi] with ends swapped for negative k.
func scaleInterval(k float64, iv floatInterval) (float64, float64) {
	lo, hi := k*iv.lo, k*iv.hi
	if k < 0 {
		lo, hi = hi, lo
	}
	// 0 * Inf is NaN; a zero coefficient collapses the interval to 0.
	if k == 0 {
		return 0, 0
	}
	return lo, hi
}

// deriveOrigins is deriveOther for provenance: given the filter interval on
// the known column it returns the origins of the interval deriveOther
// implies on the other column of kind target. A bound that is a statement
// literal x maps to x+Lo / x+Hi (or x-Hi / x-Lo) when the slope is 1 —
// exactly the arithmetic deriveOther performs, so the derived constant can
// be recomputed for another literal. A bound that is itself such an image
// composes when it is integer-valued (x+a rounded is x+round(a) for an
// integer x). ok is false when the filter interval depends on a literal
// but its image is not an offset of it (non-unit slope, a fractional
// literal rounded into an integer column, a float image derived again):
// the derived interval is then tied to the literal's value.
func (lb LinearBound) deriveOrigins(known int, iv expr.Interval, target types.Kind) (lo, hi expr.Origin, ok bool) {
	if !iv.FromLiteral() {
		return expr.Origin{}, expr.Origin{}, true
	}
	if lb.K != 1 {
		return expr.Origin{}, expr.Origin{}, false
	}
	intTarget := target == types.KindInt || target == types.KindDate
	image := func(from expr.Origin, has bool, bound types.Datum, add float64, round int8) (expr.Origin, bool) {
		switch {
		case !has || from.Slot == 0 || math.IsInf(add, 0):
			return expr.Origin{}, true
		case from.Slot < 0:
			return expr.Origin{}, false
		}
		integral := bound.Kind() == types.KindInt || bound.Kind() == types.KindDate
		switch {
		case from.Round < 0:
			add += math.Floor(from.Add)
		case from.Round > 0:
			add += math.Ceil(from.Add)
		case from.Add != 0:
			return expr.Origin{}, false
		}
		if !intTarget {
			return expr.Origin{Slot: from.Slot, Add: add}, true
		}
		if !integral {
			return expr.Origin{}, false
		}
		return expr.Origin{Slot: from.Slot, Add: add, Round: round}, true
	}
	fromLo, fromHi := iv.Origins()
	addLo, addHi := lb.Lo, lb.Hi
	if known == lb.ColA {
		addLo, addHi = -lb.Hi, -lb.Lo
	}
	var okLo, okHi bool
	lo, okLo = image(fromLo, iv.HasLo, iv.Lo, addLo, -1)
	hi, okHi = image(fromHi, iv.HasHi, iv.Hi, addHi, 1)
	return lo, hi, okLo && okHi
}

// floatToInterval converts a float interval to a datum interval of the
// given kind. Bounds on INT and DATE columns round outward
// (expr.RoundOutward), so the resulting predicate is implied by, never
// stronger than, the float statement.
func floatToInterval(iv floatInterval, kind types.Kind) expr.Interval {
	if iv.lo > iv.hi {
		return expr.Interval{ExactEmpty: true}
	}
	out := expr.Unbounded()
	intKind := kind == types.KindInt || kind == types.KindDate
	if !math.IsInf(iv.lo, -1) {
		lo := iv.lo
		if intKind {
			lo = expr.RoundOutward(lo, -1)
		}
		out = out.Intersect(expr.AtLeast(expr.NumericFromFloat(kind, lo), true))
	}
	if !math.IsInf(iv.hi, 1) {
		hi := iv.hi
		if intKind {
			hi = expr.RoundOutward(hi, 1)
		}
		out = out.Intersect(expr.AtMost(expr.NumericFromFloat(kind, hi), true))
	}
	return out
}
