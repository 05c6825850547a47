package rewrite

import (
	"fmt"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/obs"
	"softdb/internal/plan"
)

// trimJoinHoles applies §2 [8]'s optimization: for an equi-join with a
// registered hole set over profiled attributes (A on the left table, B on
// the right), the query's range condition on A can be tightened by every
// hole whose B-extent covers the query's whole B range (values of A inside
// such a hole can produce no join results), and symmetrically for B. The
// trim happens on the scan filters, cutting pages before the join runs.
func (r *Rewriter) trimJoinHoles(jg *plan.JoinGroup) {
	for _, c := range jg.Conjuncts {
		b, ok := c.(*expr.Binary)
		if !ok || b.Op != expr.OpEq {
			continue
		}
		lc, lok := b.L.(*expr.Column)
		rc, rok := b.R.(*expr.Column)
		if !lok || !rok {
			continue
		}
		li, ri := tableOf(jg, lc.Index), tableOf(jg, rc.Index)
		if li < 0 || ri < 0 || li == ri {
			continue
		}
		ls, lIsScan := jg.Tables[li].(*plan.Scan)
		rs, rIsScan := jg.Tables[ri].(*plan.Scan)
		if !lIsScan || !rIsScan || ls.Entry == nil || rs.Entry == nil {
			continue
		}
		lCol := ls.Def.Columns[lc.Index-jg.Offset(li)].Name
		rCol := rs.Def.Columns[rc.Index-jg.Offset(ri)].Name
		holes, swapped := r.Cat.JoinHolesFor(ls.Table, lCol, rs.Table, rCol)
		if holes == nil || len(holes.Holes) == 0 || r.Opt.masked(holes.Name) {
			continue
		}
		// Orient: "left" in the hole record vs. in this query.
		leftScan, rightScan := ls, rs
		if swapped {
			leftScan, rightScan = rs, ls
		}
		aOrd := leftScan.Def.ColumnIndex(holes.AttrLeft)
		bOrd := rightScan.Def.ColumnIndex(holes.AttrRight)
		if aOrd < 0 || bOrd < 0 {
			continue
		}
		r.trimScanPair(leftScan, aOrd, rightScan, bOrd, holes)
	}
}

// trimScanPair iterates hole-based tightening to a fixpoint, then plants
// prune-only predicates for interior holes the trim could not exploit.
func (r *Rewriter) trimScanPair(ls *plan.Scan, aOrd int, rs *plan.Scan, bOrd int, holes *catalog.JoinHoles) {
	source, rects := holes.Name, holes.Holes
	// Normalize filters into flat conjunct lists first.
	ls.Filter = expr.SplitConjuncts(expr.And(ls.Filter...))
	rs.Filter = expr.SplitConjuncts(expr.And(rs.Filter...))
	for pass := 0; pass < 4; pass++ {
		ia, _ := expr.ExtractInterval(ls.Filter, aOrd)
		ib, _ := expr.ExtractInterval(rs.Filter, bOrd)
		if ia.FromLiteral() || ib.FromLiteral() {
			// Which holes cover or cut the query's ranges depends on where
			// the literals fall.
			r.literalBound("hole-trim")
		}
		changed := false
		for _, h := range rects {
			// A-side trim: the hole's B extent must cover the whole B range
			// the query admits.
			if !ib.IsUnbounded() && ib.CoveredBy(h.B) {
				if trimmed, ok := ia.Subtract(h.A); ok && trimmed.String() != ia.String() {
					ia = trimmed
					changed = true
				}
			}
			if !ia.IsUnbounded() && ia.CoveredBy(h.A) {
				if trimmed, ok := ib.Subtract(h.B); ok && trimmed.String() != ib.String() {
					ib = trimmed
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		r.replaceInterval(ls, aOrd, ia)
		r.replaceInterval(rs, bOrd, ib)
		r.event(obs.Event{Rule: "hole-trim", Constraint: source,
			Mode: "JOIN HOLES", Confidence: 1, Applied: true, Shaped: true,
			Detail: fmt.Sprintf("%s.%s to %s, %s.%s to %s",
				ls.Alias, ls.Def.Columns[aOrd].Name, ia, rs.Alias, rs.Def.Columns[bOrd].Name, ib)})
	}
	if r.Opt.NoPruneIntro {
		return
	}
	// Interior holes: Subtract can only cut the ends of a range, but a hole
	// strictly inside the remaining query range still proves that rows with
	// the attribute inside it produce no join result (the hole's other-side
	// extent covers the whole other-side query range). Those rows cannot be
	// filtered away as a range predicate — the range would split — but the
	// pages holding only them can be skipped wholesale.
	ia, _ := expr.ExtractInterval(ls.Filter, aOrd)
	ib, _ := expr.ExtractInterval(rs.Filter, bOrd)
	for _, h := range rects {
		if !ib.IsUnbounded() && ib.CoveredBy(h.B) && !ia.Disjoint(h.A) {
			r.plantHolePrune(ls, aOrd, holes, h, h.A)
		}
		if !ia.IsUnbounded() && ia.CoveredBy(h.A) && !ib.Disjoint(h.B) {
			r.plantHolePrune(rs, bOrd, holes, h, h.B)
		}
	}
}

// plantHolePrune attaches an exclusion prune predicate: pages whose values
// of column ord all lie inside iv (an interior hole's extent) are skipped.
// The runtime check re-verifies the hole survives — §4.3's hole retirement
// must stop derived pruning exactly as it invalidates plans.
func (r *Rewriter) plantHolePrune(s *plan.Scan, ord int, holes *catalog.JoinHoles, h catalog.Rect, iv expr.Interval) {
	for _, pp := range s.PrunePreds {
		if pp.Col == ord && pp.Exclude && pp.Interval.String() == iv.String() {
			return
		}
	}
	s.PrunePreds = append(s.PrunePreds, plan.PrunePred{
		Col: ord, Interval: iv, Exclude: true,
		Source: holes.Name, Check: holeCheck(holes, h),
	})
	// Not Shaped — prune-only predicates self-invalidate via Check, so they
	// must not engage the §4.1 cache machinery.
	r.event(obs.Event{Rule: "prune-introduction", Constraint: holes.Name,
		Mode: "JOIN HOLES", Confidence: 1, Applied: true,
		Detail: fmt.Sprintf("%s: pages with %s entirely inside %s skippable (interior hole)",
			s.Alias, s.Def.Columns[ord].Name, iv)})
}

// holeCheck reports whether the specific hole rectangle is still registered
// and the hole set active; retired holes (violating writes) disable the
// derived predicate immediately, even on cached plans.
// The closure runs during operator execution, outside the engine's shared
// lock, so it takes the catalog runtime read lock against commit hooks
// retiring holes concurrently.
func holeCheck(holes *catalog.JoinHoles, h catalog.Rect) func() bool {
	a, b := h.A.String(), h.B.String()
	return func() bool {
		catalog.RuntimeRLock()
		defer catalog.RuntimeRUnlock()
		if !holes.Active {
			return false
		}
		for _, cur := range holes.Holes {
			if cur.A.String() == a && cur.B.String() == b {
				return true
			}
		}
		return false
	}
}

// replaceInterval rewrites the scan's filter so its interval on the column
// becomes iv (other conjuncts are preserved).
func (r *Rewriter) replaceInterval(s *plan.Scan, ord int, iv expr.Interval) {
	_, rest := expr.ExtractInterval(s.Filter, ord)
	col := expr.NewColumn(s.Alias, s.Def.Columns[ord].Name, ord, s.Def.Columns[ord].Type)
	if p := expr.IntervalToPredicate(col, iv); p != nil {
		rest = append(rest, expr.SplitConjuncts(p)...)
	}
	s.Filter = rest
}
