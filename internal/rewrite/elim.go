package rewrite

import (
	"fmt"
	"strings"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/obs"
	"softdb/internal/plan"
)

// eliminateJoins removes joined tables that provably contribute nothing
// beyond their join key — the paper's [6] join elimination over referential
// integrity. A parent (referenced) table P joined from child C over a
// foreign key can be dropped when:
//
//   - the only conjuncts touching P are the FK equi-join predicates,
//   - the FK's referenced columns are a unique key of P (so the join is
//     at most 1:1 from C's perspective),
//   - the FK constraint is active and usable in rewrite (enforced,
//     informational, or absolute soft),
//   - every P column the consumer uses is a referenced key column (each is
//     then replaced by the child's FK column), and
//   - the child FK columns are NOT NULL, or an IS NOT NULL filter is added
//     (inner-join semantics drop unmatched child rows).
//
// slots are pointers to every consumer expression bound to the group's
// output; they are remapped in place when a table is removed.
func (r *Rewriter) eliminateJoins(jg *plan.JoinGroup, slots []*expr.Expr) {
	for {
		if !r.eliminateOneJoin(jg, slots) {
			return
		}
	}
}

func (r *Rewriter) eliminateOneJoin(jg *plan.JoinGroup, slots []*expr.Expr) bool {
	if len(jg.Tables) < 2 {
		return false
	}
	required := map[int]bool{}
	for _, s := range slots {
		for _, ord := range expr.ColumnIndexes(*s) {
			required[ord] = true
		}
	}
	for p := range jg.Tables {
		parent, ok := jg.Tables[p].(*plan.Scan)
		if !ok || parent.Entry == nil || len(parent.Filter) > 0 || len(parent.EstOnly) > 0 {
			continue
		}
		if r.tryEliminateParent(jg, slots, required, p, parent) {
			return true
		}
	}
	return false
}

func (r *Rewriter) tryEliminateParent(jg *plan.JoinGroup, slots []*expr.Expr, required map[int]bool, p int, parent *plan.Scan) bool {
	offP := jg.Offset(p)
	nP := len(parent.Def.Columns)
	inP := func(ord int) bool { return ord >= offP && ord < offP+nP }

	// Collect the equi-join pairs touching P; any other conjunct touching P
	// disqualifies it.
	var pairs []joinPair
	var joinConjIdx []int
	childIdx := -1
	for ci, c := range jg.Conjuncts {
		ords := expr.ColumnIndexes(c)
		touches := false
		for _, o := range ords {
			if inP(o) {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		b, ok := c.(*expr.Binary)
		if !ok || b.Op != expr.OpEq {
			return false
		}
		lc, lok := b.L.(*expr.Column)
		rc, rok := b.R.(*expr.Column)
		if !lok || !rok {
			return false
		}
		var childOrd, parentOrd int
		switch {
		case inP(lc.Index) && !inP(rc.Index):
			parentOrd, childOrd = lc.Index, rc.Index
		case inP(rc.Index) && !inP(lc.Index):
			parentOrd, childOrd = rc.Index, lc.Index
		default:
			return false
		}
		// Identify the child table; all pairs must come from one child.
		ti := tableOf(jg, childOrd)
		if childIdx < 0 {
			childIdx = ti
		} else if childIdx != ti {
			return false
		}
		pairs = append(pairs, joinPair{childOrd: childOrd, parentOrd: parentOrd})
		joinConjIdx = append(joinConjIdx, ci)
	}
	if len(pairs) == 0 || childIdx < 0 {
		return false
	}
	child, ok := jg.Tables[childIdx].(*plan.Scan)
	if !ok || child.Entry == nil {
		return false
	}
	offC := jg.Offset(childIdx)

	// Find a matching FK on the child.
	var fk *catalog.Constraint
	for _, con := range child.Entry.Constraints {
		if con.Kind != catalog.ForeignKey || !con.Active || !con.Mode.UsableInRewrite() || r.Opt.masked(con.Name) {
			continue
		}
		if !strings.EqualFold(con.RefTable, parent.Table) {
			continue
		}
		if matchFKPairs(con, child, parent, offC, offP, pairs) {
			fk = con
			break
		}
	}
	if fk == nil {
		return false
	}
	// Referenced columns must be a unique key of the parent.
	hasKey := false
	for _, con := range parent.Entry.Constraints {
		if con.IsKeyOver(fk.RefColumns) && con.Mode.UsableInRewrite() {
			hasKey = true
			break
		}
	}
	if !hasKey {
		return false
	}
	// Every required parent column must be one of the joined key columns.
	redirect := map[int]int{} // parent global ordinal -> child global ordinal
	for _, pr := range pairs {
		redirect[pr.parentOrd] = pr.childOrd
	}
	for ord := range required {
		if inP(ord) {
			if _, ok := redirect[ord]; !ok {
				return false
			}
		}
	}
	// NOT NULL guard on nullable FK columns.
	for _, colName := range fk.Columns {
		ci := child.Def.ColumnIndex(colName)
		if ci >= 0 && child.Def.Columns[ci].Nullable {
			guard := expr.NewUnary(expr.OpIsNotNull,
				expr.NewColumn(child.Alias, child.Def.Columns[ci].Name, ci, child.Def.Columns[ci].Type))
			if !expr.ContainsConjunct(child.Filter, guard) {
				child.Filter = append(child.Filter, guard)
			}
		}
	}

	// Build the full remap: parent ordinals route to the child's FK column,
	// everything after the parent shifts down.
	mapping := map[int]int{}
	shift := func(ord int) int {
		if ord >= offP+nP {
			return ord - nP
		}
		return ord
	}
	total := len(jg.Cols())
	for ord := 0; ord < total; ord++ {
		if inP(ord) {
			if child, ok := redirect[ord]; ok {
				mapping[ord] = shift(child)
			}
			continue
		}
		mapping[ord] = shift(ord)
	}
	// Drop the join conjuncts; remap the rest.
	dropped := map[int]bool{}
	for _, ci := range joinConjIdx {
		dropped[ci] = true
	}
	var kept []expr.Expr
	for ci, c := range jg.Conjuncts {
		if dropped[ci] {
			continue
		}
		kept = append(kept, expr.RemapColumns(c, mapping))
	}
	jg.Conjuncts = kept
	jg.Tables = append(jg.Tables[:p:p], jg.Tables[p+1:]...)
	for _, s := range slots {
		*s = expr.RemapColumns(*s, mapping)
	}
	r.event(obs.Event{Rule: "join-elimination", Constraint: fk.Name,
		Mode: fk.Mode.String(), Confidence: fk.Confidence, Applied: true, Shaped: true,
		Detail:    fmt.Sprintf("removed %s (referential integrity from %s)", parent.Alias, child.Alias),
		RowsSaved: float64(parent.Entry.Heap.RowCount())})
	return true
}

// matchFKPairs checks the collected equi-join pairs are exactly the FK's
// column pairs.
func matchFKPairs(fk *catalog.Constraint, child, parent *plan.Scan, offC, offP int, pairs []joinPair) bool {
	if len(pairs) != len(fk.Columns) {
		return false
	}
	want := map[[2]int]bool{}
	for i, colName := range fk.Columns {
		ci := child.Def.ColumnIndex(colName)
		pi := parent.Def.ColumnIndex(fk.RefColumns[i])
		if ci < 0 || pi < 0 {
			return false
		}
		want[[2]int{offC + ci, offP + pi}] = true
	}
	for _, pr := range pairs {
		if !want[[2]int{pr.childOrd, pr.parentOrd}] {
			return false
		}
	}
	return true
}

// joinPair is one FK equi-join column pair in global ordinals.
type joinPair struct{ childOrd, parentOrd int }

// tableOf returns the index of the group input owning the global ordinal.
func tableOf(jg *plan.JoinGroup, ord int) int {
	off := 0
	for i, t := range jg.Tables {
		n := len(t.Cols())
		if ord >= off && ord < off+n {
			return i
		}
		off += n
	}
	return -1
}

// simplifyGroup collapses a single-input, conjunct-free group.
func (r *Rewriter) simplifyGroup(jg *plan.JoinGroup) plan.Node {
	if len(jg.Tables) == 1 && len(jg.Conjuncts) == 0 {
		return jg.Tables[0]
	}
	return jg
}
