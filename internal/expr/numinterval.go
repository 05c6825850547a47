package expr

import "softdb/internal/types"

// NumInterval is an Interval whose present bounds are all INT, DATE or
// FLOAT, resolved once to plain numbers so that testing it against a page
// synopsis's [min, max] costs scalar compares instead of building and
// intersecting Intervals per page. Every verdict is the one the Interval
// algebra gives for Between(min, max, true, true) — the decision procedure is
// the same, step for step, over unboxed values — so callers may mix the two
// freely (and fall back to the algebra for non-numeric pages).
type NumInterval struct {
	hasLo, hasHi   bool
	loIncl, hiIncl bool
	exactEmpty     bool
	lo, hi         Num
}

// Num is one numeric datum unboxed: the int64 image of an INT/DATE, or a
// float. f always holds the float image so mixed compares need no branch on
// the other side. Zone maps hand page bounds to the verdicts below in this
// form, so a page test never builds a Datum.
type Num struct {
	isFloat bool
	i       int64
	f       float64
}

// IntNum is the Num of an INT or DATE datum with integer image i.
func IntNum(i int64) Num { return Num{i: i, f: float64(i)} }

// FloatNum is the Num of a FLOAT datum.
func FloatNum(f float64) Num { return Num{isFloat: true, f: f} }

func numOf(d types.Datum) (Num, bool) {
	switch d.Kind() {
	case types.KindInt, types.KindDate:
		return IntNum(d.IntImage()), true
	case types.KindFloat:
		return FloatNum(d.Float()), true
	default:
		return Num{}, false
	}
}

// cmpNum is Datum.Compare for two numeric datums: float comparison when
// either side is a float, integer comparison otherwise.
func cmpNum(a, b Num) int {
	if a.isFloat || b.isFloat {
		return types.CompareFloat(a.f, b.f)
	}
	switch {
	case a.i < b.i:
		return -1
	case a.i > b.i:
		return 1
	default:
		return 0
	}
}

// Numeric resolves the interval to numeric bounds; ok is false when a
// present bound is not INT, DATE or FLOAT.
func (iv Interval) Numeric() (n NumInterval, ok bool) {
	n = NumInterval{hasLo: iv.HasLo, hasHi: iv.HasHi, loIncl: iv.LoIncl, hiIncl: iv.HiIncl, exactEmpty: iv.ExactEmpty}
	if iv.HasLo {
		if n.lo, ok = numOf(iv.Lo); !ok {
			return NumInterval{}, false
		}
	}
	if iv.HasHi {
		if n.hi, ok = numOf(iv.Hi); !ok {
			return NumInterval{}, false
		}
	}
	return n, true
}

// Covers reports whether every value of a page whose non-null values span
// [min, max] lies inside the interval — Between(min, max, true,
// true).CoveredBy(iv). ok is false when min or max is not numeric.
func (n *NumInterval) Covers(min, max types.Datum) (covered, ok bool) {
	lo, okLo := numOf(min)
	hi, okHi := numOf(max)
	if !okLo || !okHi {
		return false, false
	}
	return n.CoversNum(lo, hi), true
}

// CoversNum is Covers over unboxed page bounds.
func (n *NumInterval) CoversNum(lo, hi Num) bool {
	if cmpNum(lo, hi) > 0 {
		return true // an empty page range is covered by anything
	}
	if n.exactEmpty {
		return false
	}
	if n.hasLo {
		if c := cmpNum(lo, n.lo); c < 0 || (c == 0 && !n.loIncl) {
			return false
		}
	}
	if n.hasHi {
		if c := cmpNum(hi, n.hi); c > 0 || (c == 0 && !n.hiIncl) {
			return false
		}
	}
	return true
}

// Disjoint reports whether no value of a page whose non-null values span
// [min, max] lies inside the interval — Between(min, max, true,
// true).Disjoint(iv). ok is false when min or max is not numeric.
func (n *NumInterval) Disjoint(min, max types.Datum) (disjoint, ok bool) {
	pLo, okLo := numOf(min)
	pHi, okHi := numOf(max)
	if !okLo || !okHi {
		return false, false
	}
	return n.DisjointNum(pLo, pHi), true
}

// DisjointNum is Disjoint over unboxed page bounds.
func (n *NumInterval) DisjointNum(pLo, pHi Num) bool {
	if cmpNum(pLo, pHi) > 0 || n.exactEmpty {
		return true
	}
	// The intersection's bounds: the tighter of the page's (inclusive) and
	// the interval's on each side, exactly as Interval.Intersect picks them.
	lo, loIncl := pLo, true
	if n.hasLo {
		if c := cmpNum(pLo, n.lo); c < 0 {
			lo, loIncl = n.lo, n.loIncl
		} else if c == 0 {
			loIncl = n.loIncl
		}
	}
	hi, hiIncl := pHi, true
	if n.hasHi {
		if c := cmpNum(pHi, n.hi); c > 0 {
			hi, hiIncl = n.hi, n.hiIncl
		} else if c == 0 {
			hiIncl = n.hiIncl
		}
	}
	c := cmpNum(lo, hi)
	return c > 0 || (c == 0 && (!loIncl || !hiIncl))
}
