package catalog

import (
	"fmt"
	"strings"

	"softdb/internal/expr"
	"softdb/internal/types"
)

// LinearCorrelation is the paper's §2 [10] mined characterization: for a
// fraction Confidence of rows of Table, ColA = K*ColB + B within ±Eps.
// With Confidence == 1 it is an absolute soft constraint and may drive
// predicate-introduction rewrites; below 1 it is statistical and usable for
// estimation (or for the exception-union rewrite when an exception AST
// exists, §4.4).
type LinearCorrelation struct {
	Name       string
	Table      string
	ColA, ColB string // A = K*B + B0 ± Eps
	K, B0, Eps float64
	Confidence float64
	Active     bool

	// Probation implements §3.2's dynamic selection: a probationary
	// correlation is maintained (checked on writes, currency tracked) but
	// not yet employed by the optimizer, so its durability can be assessed
	// cheaply before plans come to depend on it.
	Probation bool

	// Currency bookkeeping (§3.3).
	VerifiedVersion int64
	ModsSince       int64
}

// Describe renders the correlation in the paper's notation.
func (lc *LinearCorrelation) Describe() string {
	s := fmt.Sprintf("%s: %s.%s = %.4g*%s + %.4g ± %.4g (confidence %.4f)",
		lc.Name, lc.Table, lc.ColA, lc.K, lc.ColB, lc.B0, lc.Eps, lc.Confidence)
	if !lc.Active {
		s += " [INACTIVE]"
	}
	if lc.Probation {
		s += " [PROBATION]"
	}
	return s
}

// Usable reports whether the optimizer may employ the correlation: active
// and past probation.
func (lc *LinearCorrelation) Usable() bool { return lc.Active && !lc.Probation }

// Admits reports whether the pair (a, b) of ColA and ColB values lies in
// the envelope A = K*B + B0 ± Eps; a pair with a NULL passes. It tests both
// directions with the float operations the rewriter's deriveOther performs
// for a point, and rounding is monotone, so every bound derived from a
// filter on either column contains every admitted pair (DESIGN.md §25).
// Arithmetic that overflows to NaN admits nothing.
func (lc *LinearCorrelation) Admits(a, b types.Datum) bool {
	if a.IsNull() || b.IsNull() {
		return true
	}
	return lc.AdmitsFloat(a.Float(), b.Float())
}

// AdmitsFloat is Admits for a non-NULL pair read as float64s.
func (lc *LinearCorrelation) AdmitsFloat(af, bf float64) bool {
	lo, hi := lc.B0-lc.Eps, lc.B0+lc.Eps
	kb := lc.K * bf
	if !(kb+lo <= af && af <= kb+hi) {
		return false
	}
	if lc.K == 0 {
		return true
	}
	blo, bhi := (af-hi)/lc.K, (af-lo)/lc.K
	if lc.K < 0 {
		blo, bhi = bhi, blo
	}
	return blo <= bf && bf <= bhi
}

// IsAbsolute reports whether the correlation holds for every row.
func (lc *LinearCorrelation) IsAbsolute() bool { return lc.Confidence >= 1 }

// EffectiveConfidence is §3.3's currency-discounted confidence over a table
// of rowCount rows: the stated confidence lowered by the fraction of the
// table modified since verification (the margin of error). Absolute
// correlations are exempt — every write is envelope-checked synchronously,
// so they stay exact until a violation deactivates them.
func (lc *LinearCorrelation) EffectiveConfidence(rowCount int64) float64 {
	if lc.IsAbsolute() {
		return lc.Confidence
	}
	if rowCount <= 0 {
		return 0
	}
	margin := float64(lc.ModsSince) / float64(rowCount)
	if margin > 1 {
		margin = 1
	}
	eff := lc.Confidence - margin
	if eff < 0 {
		eff = 0
	}
	return eff
}

// Rect is an axis-aligned empty rectangle in the (left attribute, right
// attribute) plane of a join result.
type Rect struct {
	A expr.Interval // over the left table's attribute
	B expr.Interval // over the right table's attribute
}

// String renders the rectangle.
func (r Rect) String() string { return r.A.String() + " × " + r.B.String() }

// JoinHoles records §2 [8]'s mined characterization: over the join
// LeftTable.JoinLeft = RightTable.JoinRight, no result tuple has
// (AttrLeft, AttrRight) inside any of Holes. Holes are maximal empty
// rectangles. Join holes are inherently ASCs: trimming a query range by a
// stale hole changes answers, so a violated hole must be dropped or split
// (§4.3).
type JoinHoles struct {
	Name       string
	LeftTable  string
	RightTable string
	JoinLeft   string // join column on the left table
	JoinRight  string // join column on the right table
	AttrLeft   string // profiled attribute on the left table
	AttrRight  string // profiled attribute on the right table
	Holes      []Rect
	Active     bool

	VerifiedVersion int64 // left heap version at discovery
	ModsSince       int64
}

// Describe renders the hole set.
func (jh *JoinHoles) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: holes over %s(%s) ⋈ %s(%s) on (%s, %s): %d holes",
		jh.Name, jh.LeftTable, jh.JoinLeft, jh.RightTable, jh.JoinRight,
		jh.AttrLeft, jh.AttrRight, len(jh.Holes))
	if !jh.Active {
		b.WriteString(" [INACTIVE]")
	}
	return b.String()
}

// DropHolesIntersecting removes (or, where possible, shrinks) holes that
// contain the given point — the paper's §4.3 cheap synchronous repair: on
// insert, assume the new value violates any hole containing it and retire
// that hole; the asynchronous miner restores optimality later. It returns
// the number of holes retired.
func (jh *JoinHoles) DropHolesIntersecting(a, b expr.Interval) int {
	kept := jh.Holes[:0]
	dropped := 0
	for _, h := range jh.Holes {
		if !h.A.Disjoint(a) && !h.B.Disjoint(b) {
			dropped++
			continue
		}
		kept = append(kept, h)
	}
	jh.Holes = kept
	return dropped
}
