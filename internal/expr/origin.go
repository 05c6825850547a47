package expr

import (
	"math"

	"softdb/internal/types"
)

// Origin records that a constant is a function of one literal of the
// statement text, identified by its 1-based fingerprint slot:
//
//	value = literal                          (Add == 0, Round == 0)
//	value = round(float(literal) + Add)      (derived through a linear bound)
//
// The second form is what predicate and prune introduction produce from a
// unit-slope bound such as ship_date - order_date ∈ [0, 21]: the derived
// constant moves with the literal, so the plan stays a template. The zero
// Origin means the constant does not depend on any statement literal.
type Origin struct {
	Slot int
	// Add is the offset added to the literal's float image.
	Add float64
	// Round is the direction integer-kind targets were rounded in: -1
	// floor, +1 ceil, 0 none.
	Round int8
}

// NumericFromFloat converts f to a datum of the given kind, truncating for
// the integer kinds and saturating past the int64 range — the one
// conversion both the deriving rewrite and Origin.Apply use, so a rebound
// constant is bit-identical to a re-derived one.
func NumericFromFloat(kind types.Kind, f float64) types.Datum {
	switch kind {
	case types.KindInt:
		return types.NewInt(saturateInt(f))
	case types.KindDate:
		return types.NewDate(saturateInt(f))
	default:
		return types.NewFloat(f)
	}
}

func saturateInt(f float64) int64 {
	switch {
	case f >= 0x1p63:
		return math.MaxInt64
	case f <= -0x1p63:
		return math.MinInt64
	}
	return int64(f)
}

// RoundOutward rounds a float bound on an INT or DATE column to an integer
// away from the interval: down for a lower bound (dir < 0), up for an
// upper one. Past 2^53, where float64 skips integers, an integer whose
// image meets the bound can lie just beyond it, so the bound steps one
// float further out. The deriving rewrite and Origin.Apply both round
// here, so a rebound constant is bit-identical to a re-derived one.
func RoundOutward(f float64, dir int8) float64 {
	out := math.Inf(1)
	if dir < 0 {
		f, out = math.Floor(f), math.Inf(-1)
	} else {
		f = math.Ceil(f)
	}
	if math.Abs(f) >= 0x1p53 {
		f = math.Nextafter(f, out)
	}
	return f
}

// Apply recomputes the constant for the literal vector lits. like is the
// constant's current value; it supplies the kind of the result.
func (o Origin) Apply(lits []types.Datum, like types.Datum) types.Datum {
	lit := lits[o.Slot-1]
	if o.Add == 0 && o.Round == 0 && lit.Kind() == like.Kind() {
		return lit
	}
	f := lit.Float() + o.Add
	if o.Round != 0 {
		f = RoundOutward(f, o.Round)
	}
	return NumericFromFloat(like.Kind(), f)
}

// Bind returns e with every literal-derived constant recomputed for lits.
// Subtrees without such constants are shared with e, not copied.
func Bind(e Expr, lits []types.Datum) Expr {
	return Transform(e, func(n Expr) Expr {
		if c, ok := n.(*Const); ok && c.From.Slot > 0 {
			return &Const{Value: c.From.Apply(lits, c.Value), From: c.From}
		}
		return n
	})
}

// BindAll is Bind over a list; the input slice is returned when nothing in
// it depends on a literal.
func BindAll(es []Expr, lits []types.Datum) []Expr {
	var out []Expr
	for i, e := range es {
		b := Bind(e, lits)
		if b != e && out == nil {
			out = append(make([]Expr, 0, len(es)), es[:i]...)
		}
		if out != nil {
			out = append(out, b)
		}
	}
	if out == nil {
		return es
	}
	return out
}

// HasLiteral reports whether any constant in e derives from a statement
// literal.
func HasLiteral(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*Const); ok && c.From.Slot != 0 {
			found = true
		}
		return !found
	})
	return found
}

// FoldsLiteral reports whether constant folding would consume a statement
// literal in e: some constant-only subtree larger than a single constant
// holds one. Whether and to what such a subtree folds depends on the
// literal's value, so a plan built from the folded form is tied to it.
func FoldsLiteral(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if found {
			return false
		}
		switch n.(type) {
		case *Const, *Column:
			return false
		}
		if isConstTree(n) {
			found = HasLiteral(n)
			return false
		}
		return true
	})
	return found
}
